"""fault_hooks fixture: ad-hoc fault-hook installation outside repro/faults/."""

import repro.faults
from repro import faults
from repro.faults import PLANS, install  # the import alone is a finding


def arm_directly():
    faults.install(PLANS["crashy"])  # bypasses the env protocol
    repro.faults.install(PLANS["crashy"])  # dotted spelling, same offence


def poke_state():
    faults.active = True  # hook state mutated behind install/uninstall
