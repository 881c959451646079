"""worker_task fixture — task registrations that die under spawn."""

import multiprocessing


def good_task(state, payload):
    return payload


def register_late():
    def inner(state, payload):
        return payload

    TASKS["late"] = inner


TASKS = {
    "ok": good_task,
    "bad_lambda": lambda state, payload: payload,
    "bad_call": make_task(),
}


def spawn_proc():
    return multiprocessing.Process(target=lambda: None)
