"""Fixture: lexical lock-order shapes (AB/BA across two functions, ``with a, b:``)."""

import threading

_A = threading.Lock()
_B = threading.Lock()


def ab():
    with _A:
        with _B:
            pass


def ba():
    with _B:
        with _A:
            pass


def ab_one_statement():
    with _A, _B:
        pass


class Matcher:
    def __init__(self):
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()

    def stats_under_lock(self):
        with self._lock:
            with self._stats_lock:
                pass

    def sequential_ok(self):
        with self._lock:
            pass
        with self._stats_lock:
            pass

    def closure_ok(self):
        with self._lock:
            def later():
                with self._stats_lock:
                    pass
        return later
