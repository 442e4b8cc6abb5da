"""Fixture: workspace-buffer confinement escapes (stash-on-self, thread handoff)."""

import threading


class Transport:
    def __init__(self):
        self._keep = None

    def stash(self, ws):
        # A workspace buffer is rewritten by the next forward of its
        # shape, so keeping a reference on self outlives the call.
        scratch = ws
        row = scratch.buf("x", (4, 4))
        self._keep = row

    def stash_view(self, ws):
        row = ws.buf("x", (4, 4))
        head = row[:2]
        self._keep = head.reshape(8)

    def stash_workspace(self, ws):
        self._scratch = ws.buf("x", (8,))

    def handoff_lambda(self, executor, ws):
        row = ws.buf("x", (4, 4))
        # The lambda carries the buffer to an executor thread.
        executor.submit(lambda: row.sum())

    def handoff_thread(self, ws):
        row = ws.buf("x", (4, 4))

        def worker():
            return row.sum()

        # So does a nested def handed to a thread.
        threading.Thread(target=worker).start()

    def local_use_ok(self, ws):
        row = ws.buf("x", (4, 4))
        return row

    def copy_ok(self, ws):
        row = ws.buf("x", (4, 4))
        self._keep = row.copy()

    def own_pool_ok(self, ws):
        self.workspace = ws
