"""Known-bad: calendar-clock reads through datetime."""

import datetime


def joined_at():
    return datetime.datetime.now()  # expect: RPL004


def joined_at_utc():
    return datetime.datetime.utcnow()  # expect: RPL004


def epoch_label():
    return datetime.date.today().isoformat()  # expect: RPL004
