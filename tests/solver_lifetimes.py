"""Which Kerzman-Stein matrices are alive at once.

solver_lifetimes() counts every SzegoSolver built inside it from its
construction until it is collected (weakref.finalize), at 16 n^2 bytes,
its complex n x n matrix B, the one thing a solver keeps.  It
records the peak of their sum and the node counts alive at that peak,
as the benchmark's traced kernels.szego.factor_bytes does.
"""

import contextlib
import weakref

from caratheodory.kernels.szego import SzegoSolver


class Lifetimes:
    def __init__(self):
        self.live = {}  # a serial number per solver -> its node count
        self.peak_bytes = 0
        self.peak_sizes = []  # the node counts alive at the peak, sorted
        self._serial = 0

    def born(self, solver):
        n = solver.mesh.size
        key, self._serial = self._serial, self._serial + 1
        self.live[key] = n
        weakref.finalize(solver, self.live.pop, key)
        nbytes = sum(16 * m * m for m in self.live.values())
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes
            self.peak_sizes = sorted(self.live.values())


@contextlib.contextmanager
def solver_lifetimes():
    """Lifetimes of the SzegoSolvers built in the block."""
    rec = Lifetimes()
    init = SzegoSolver.__init__

    def tracked(solver, mesh):
        init(solver, mesh)
        rec.born(solver)

    SzegoSolver.__init__ = tracked
    try:
        yield rec
    finally:
        SzegoSolver.__init__ = init
