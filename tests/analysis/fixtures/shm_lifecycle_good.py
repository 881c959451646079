"""shm_lifecycle fixture — shared memory only through the shm module API (clean)."""

from repro.parallel.shm import SharedMatrix, attach_csr


def attach(handle):
    return attach_csr(handle)


def make_matrix(rows, cols):
    return SharedMatrix(rows, cols)
