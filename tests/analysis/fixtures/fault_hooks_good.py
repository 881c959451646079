"""fault_hooks fixture: arming through the environment protocol (clean)."""

from repro import faults
from repro.faults import PLANS


def arm_for_children(environ):
    faults.arm_env(PLANS["crashy"], environ)
    faults.maybe_install_from_env()  # respects an already-armed plan


def observe_and_disarm():
    if faults.active:
        print(faults.fired())
    faults.worker_reset(0, incarnation=1)
    faults.uninstall()


class Installer:
    def install(self, widget):  # unrelated install methods stay legal
        self.widget = widget


Installer().install("antenna")
