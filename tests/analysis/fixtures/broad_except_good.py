"""broad_except fixture — the allowed exception-handling shapes (clean)."""


def narrow(fn):
    try:
        return fn()
    except (OSError, ValueError):
        return None


def wraps(fn):
    try:
        return fn()
    except Exception as exc:
        raise RuntimeError("wrapped") from exc


class Holder:
    def close(self):
        pass

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
