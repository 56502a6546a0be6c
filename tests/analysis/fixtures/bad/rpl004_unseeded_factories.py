"""Known-bad: generator factories called without a seed."""

import random

import numpy
import numpy as np


def os_entropy():
    return random.SystemRandom()  # expect: RPL004


def legacy_state():
    return np.random.RandomState()  # expect: RPL004


def noise(count):
    return numpy.random.rand(count)  # expect: RPL004
