"""Known-bad: a suppression that names no rule is itself an error."""


def innocuous():
    marker = 2  # reprolint: disable= reason=the order is fixed  # expect: RPL000
    return marker
