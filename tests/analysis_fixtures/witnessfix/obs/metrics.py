"""Fixture: the declared registry -> data nesting, silent because it is in the ledger."""

import threading


class MetricsRegistry:
    def __init__(self):
        self._registry_lock = threading.Lock()
        self._data_lock = threading.Lock()
        self._histograms = {}

    def histogram(self, name):
        with self._registry_lock:
            with self._data_lock:
                return self._histograms.setdefault(name, [])
