"""Fixture: the SessionRegistry torn-write shape."""

import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._sessions = {}
        self._total_opened = 0

    def register(self, key, session):
        with self._lock:
            self._sessions[key] = session
        self._total_opened += 1

    def reset(self):
        self._sessions = {}

    def snapshot(self):
        with self._lock:
            return dict(self._sessions)


class Lockless:
    """No lock owned: writes are not this rule's business."""

    def __init__(self):
        self._count = 0

    def bump(self):
        self._count += 1
