"""The benchmark's three workloads, generated from a seed offset.

Every workload is a fixed, ordered list of guest jobs (one pass).  The
benchmark replays the same pass, against a fresh witness service each
time, until its measuring time is used up, so every pass must do exactly
the same work.  Changing the seed offset changes every page the pass
serves while keeping its composition (archetype x script counts) fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.forms import jotform_page
from repro.scenarios.spec import ScenarioSpec
from repro.web.layout import layout_page

#: Spec seeds of one seed offset lie in ``[offset * STRIDE, offset * STRIDE + STRIDE)``.
STRIDE = 1000

#: Seeds are taken modulo this; warm-up pages sit above every timed seed.
SEED_OFFSETS = 10_000
WARMUP_SEED = SEED_OFFSETS * STRIDE

#: Display of the session-start guests (the WitnessedSite default).
SESSION_START_DISPLAY = (640, 480)


@dataclass(frozen=True)
class Workload:
    """One named workload: the composition of one pass."""

    name: str
    #: Page archetypes of a typing workload; each runs every script
    #: ``reps`` times per pass.
    archetypes: tuple = ()
    scripts: tuple = ()
    reps: int = 1
    #: Distinct Jotform pages per pass (session-start), of which
    #: ``tall_pages`` are taller than the display and the rest fit it.
    #: Viewport location at frame 0 searches only the tall ones, so their
    #: share is fixed (left to chance it moves the median session start)
    #: at the generator's natural share: 1470 of 3000 Jotform pages
    #: (seeds 0-999, 20 000-20 999, 5 000 000-5 000 999) are taller than
    #: a 480-px display, 49%, which is 51 of 105.
    pages: int = 0
    tall_pages: int = 0

    def jobs(self, seed: int) -> list:
        """The pass for ``seed``: ScenarioSpecs or Jotform page seeds."""
        base = (seed % SEED_OFFSETS) * STRIDE
        if self.pages:
            return self._page_seeds(base)
        slots = [
            (archetype, script)
            for _rep in range(self.reps)
            for archetype in self.archetypes
            for script in self.scripts
        ]
        return [
            ScenarioSpec(archetype, script, seed=base + k)
            for k, (archetype, script) in enumerate(slots)
        ]

    def _page_seeds(self, base: int) -> list:
        want = {True: self.tall_pages, False: self.pages - self.tall_pages}
        picked = {True: [], False: []}
        for seed in range(base, base + STRIDE):
            page = jotform_page(seed, SESSION_START_DISPLAY[0])
            tall = layout_page(page) > SESSION_START_DISPLAY[1]
            if len(picked[tall]) < want[tall]:
                picked[tall].append(seed)
            if all(len(picked[k]) == want[k] for k in want):
                return sorted(picked[True] + picked[False])
        raise ValueError(f"too few Jotform pages of each height in [{base}, {base + STRIDE})")

    def warmup_job(self):
        """A job on a page outside every timed set (the set-up opens its first page)."""
        if self.pages:
            return WARMUP_SEED
        return ScenarioSpec(self.archetypes[0], "honest", seed=WARMUP_SEED)


WORKLOADS = {
    # Pages taller than the display: every validated frame searches the
    # viewport over hundreds of offsets, so viewport location dominates.
    "scroll-typing": Workload(
        "scroll-typing",
        archetypes=("tall-form", "dashboard", "nested-scroll"),
        scripts=("honest", "tampered"),
    ),
    # Pages that fit the display: locate is nearly free, so diff, POF
    # extraction and validation dominate and the witness keeps up with
    # the sampler, which makes the request delay L(s) meaningful.
    "fit-typing": Workload(
        "fit-typing",
        archetypes=("wizard", "letterbox"),
        scripts=("honest", "slow-typist", "tampered", "abandoning"),
        reps=3,
    ),
    # Many guests each open a distinct Jotform page and leave after
    # frame 0: VSPEC issuance plus a full first-frame validation, with
    # every unit verdict missing the digest cache.
    "session-start": Workload("session-start", pages=105, tall_pages=51),
}
