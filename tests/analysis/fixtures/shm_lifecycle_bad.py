"""shm_lifecycle fixture — shared-memory lifecycle violations, every spelling."""

from multiprocessing import shared_memory
from multiprocessing.shared_memory import SharedMemory
from multiprocessing.shared_memory import SharedMemory as SM


def leak(name):
    block = SharedMemory(name=name, create=True, size=64)
    other = shared_memory.SharedMemory(name=name)
    return block, other


def leak_aliased():
    return SM(create=True, size=10)


def poke(graph, attachment):
    graph._pin = attachment
    return graph._wrap_views
