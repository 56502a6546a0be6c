"""Known-bad: a reason-less pragma on its own line suppresses nothing below."""

import time


def stamp():
    # reprolint: disable=RPL004  # expect: RPL000
    return time.time()  # expect: RPL004
