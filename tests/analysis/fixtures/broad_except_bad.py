"""broad_except fixture — silent broad exception handlers."""


def swallow_everything(fn):
    try:
        return fn()
    except:
        return None


def swallow_exception(fn):
    try:
        return fn()
    except Exception:
        return None


def swallow_tuple(fn):
    try:
        return fn()
    except (ValueError, BaseException):
        return None
