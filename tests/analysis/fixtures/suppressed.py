"""Suppression fixtures — inline disables silence exactly their codes."""

import random


def seeded_elsewhere():
    return random.Random(0)  # reprolint: disable=RL002 -- fixture-approved


def swallow(fn):
    try:
        return fn()
    except Exception:  # reprolint: disable
        return None


def wrong_code_does_not_silence():
    return random.Random(1)  # reprolint: disable=RL006
