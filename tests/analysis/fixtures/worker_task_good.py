"""worker_task fixture — module-level task functions only (clean)."""

import multiprocessing

from repro.parallel import pool


def task_one(state, payload):
    return payload


TASKS = {"one": task_one, "alias": pool._task_echo}


def spawn_proc():
    return multiprocessing.Process(target=task_one, args=(None, None))
