"""Closed-form parallel performance model for QMC lattice sweeps.

The scaling tables of the paper genre (fixed-size speedup, scaled
speedup, communication fractions) are generated from this analytic
model, which charges exactly the same alpha--beta--hops costs as the
executed simulator in :mod:`repro.vmp.comm` -- the two are
cross-validated by integration tests.  The model covers the three
parallelization strategies implemented in :mod:`repro.qmc.parallel`:

``strip``
    1-D spatial decomposition of the space--time lattice: each of P
    ranks owns ``ceil(Lx/P)`` site columns over all ``Lt`` Trotter
    slices and exchanges one boundary column with each spatial
    neighbor per checkerboard half-sweep.

``block``
    2-D spatial decomposition on a ``px x py`` process grid; halos are
    the four boundary edges of the owned block, again over all slices,
    one message per neighbor *rank* (on a 2-wide axis both edges go to
    the same rank and share a buffer).  The block driver's own workload
    (:func:`ising_block_workload`) charges its schedule instead: one
    refresh a sweep of two-plane faces, and the ghost ring it updates
    redundantly as compute.

``replica``
    Trivial parallelism: each rank runs an independent Markov chain
    over the full lattice for ``1/P`` of the sweeps, and results are
    combined with one allreduce per measurement.  No halo traffic, but
    also no reduction of equilibration time -- modeled via the
    ``serial_fraction`` parameter (Amdahl term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.vmp.machines import MachineModel
from repro.vmp.topology import Topology

__all__ = [
    "WorkloadShape",
    "PerformanceModel",
    "worldline2d_workload",
    "worldline_strip_workload",
    "ising_block_workload",
    "speedup",
    "efficiency",
    "gustafson_scaled_speedup",
]


def speedup(t1: float, tp: float) -> float:
    """Fixed-size speedup ``T(1)/T(P)``."""
    if tp <= 0:
        raise ValueError("parallel time must be positive")
    return t1 / tp


def efficiency(t1: float, tp: float, p: int) -> float:
    """Parallel efficiency ``S(P)/P``."""
    return speedup(t1, tp) / p


def gustafson_scaled_speedup(serial_fraction: float, p: int) -> float:
    """Gustafson's scaled speedup ``P - s(P-1)`` for serial fraction ``s``."""
    if not 0 <= serial_fraction <= 1:
        raise ValueError("serial fraction must lie in [0, 1]")
    return p - serial_fraction * (p - 1)


@dataclass(frozen=True)
class WorkloadShape:
    """Static description of one domain-decomposed QMC sweep workload.

    Attributes
    ----------
    lx, ly:
        Spatial lattice extents (``ly = 1`` for chains).
    lt:
        Trotter (imaginary-time) slices.
    flops_per_site:
        Floating-point work per space--time site per full sweep
        (plaquette weight evaluations + Metropolis logic).
    sweeps:
        Monte Carlo sweeps in the run.
    bytes_per_site:
        Wire bytes per transferred boundary site (1 spin packs into a
        byte, but era codes shipped word-aligned buffers: default 8).
    strategy:
        ``strip`` | ``block`` | ``replica``.
    measurement_interval:
        Sweeps between measurements; each measurement costs one
        allreduce of ``allreduce_doubles`` doubles.
    allreduce_doubles:
        Accumulator width reduced per measurement.
    reduction_batch:
        Measurements whose accumulator rows share one allreduce
        (default 1: reduce at every measurement).  The decomposed
        drivers let rows pend and reduce ``k`` of them as one
        ``(k, allreduce_doubles)`` array, so a batch pays each tree
        round's alpha once; their workloads set this to the drivers'
        cap (a run with fewer measurements reduces them all at once).
    serial_fraction:
        Non-parallelizable fraction of the total work (equilibration
        bookkeeping, global RNG setup, output).  Dominates the replica
        strategy's Amdahl limit.
    halo_schedule:
        An executed driver's halo schedule, ``p -> (exchanges,
        messages, sites)``: the halo exchanges one rank runs a sweep on
        ``p`` ranks, the messages it sends at each (one per neighbor
        rank) and the sites one message carries, in place of the
        strategy's default (``None``: two half-sweeps, one boundary
        column/plane per neighbor rank).  The drivers' workloads pass
        their own (:func:`repro.qmc.parallel.halo_traffic`).  A schedule
        of five, ``(..., updates, interior)``, also prices the compute:
        the site updates one rank's sweep runs at ``flops_per_site``
        each, redundant ones included, in place of its owned sites, and
        the ones of them the overlapped schedule charges before its halo
        wait -- the block workload's.
    overlap:
        Model the five-stage overlap pipeline (pack -> post -> update
        interior -> wait -> update boundary): each halo message charges
        only the machine's ``post_overhead`` (twice: isend + irecv) on
        the critical path, and the wire delay counts only through the
        residual left after the interior compute of that exchange.
    """

    lx: int
    ly: int
    lt: int
    flops_per_site: float
    sweeps: int
    bytes_per_site: int = 8
    strategy: str = "strip"
    measurement_interval: int = 1
    allreduce_doubles: int = 8
    reduction_batch: int = 1
    serial_fraction: float = 0.0
    halo_schedule: Callable[[int], tuple] | None = None
    overlap: bool = False

    def __post_init__(self):
        if self.strategy not in ("strip", "block", "replica"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if min(self.lx, self.ly, self.lt) < 1:
            raise ValueError("lattice extents must be positive")
        if self.sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.reduction_batch < 1:
            raise ValueError("reduction_batch must be >= 1")
        if not 0 <= self.serial_fraction < 1:
            raise ValueError("serial_fraction must lie in [0, 1)")

    @property
    def sites(self) -> int:
        """Total space--time sites."""
        return self.lx * self.ly * self.lt

    @property
    def total_flops(self) -> float:
        return self.sites * self.flops_per_site * self.sweeps

    def scaled_to(self, p: int) -> "WorkloadShape":
        """Grow the spatial lattice so per-rank work is constant (weak scaling).

        The x extent is multiplied by ``p``; this keeps strip halos
        constant per rank, the memory-per-node constraint that drove
        scaled-speedup reporting on real MPPs.
        """
        import dataclasses

        return dataclasses.replace(self, lx=self.lx * p)


def worldline2d_workload(
    lx: int, ly: int, n_slices: int, sweeps: int, **overrides
) -> WorkloadShape:
    """Workload of the batched 2-D world-line sampler, replica strategy.

    FLOP accounting follows the moves the sampler
    (:class:`repro.qmc.worldline2d.WorldlineSquareQmc`) executes per
    sweep: each space--time site sees half a segment proposal (one
    proposal per bond and activation interval, ``2 N_sites`` bonds over
    ``T/4`` intervals, eight plaquettes each) plus the straight-column
    Metropolis pass, so per site-slice

        flops = FLOPS_PER_SEGMENT_MOVE / 2 + 2.

    Keyword overrides pass through to :class:`WorkloadShape` (e.g.
    ``strategy="strip"`` to model a domain-decomposed variant, or
    ``serial_fraction`` for the replica Amdahl term).
    """
    from repro.qmc.worldline2d import FLOPS_PER_SEGMENT_MOVE

    kwargs = dict(
        lx=lx,
        ly=ly,
        lt=n_slices,
        flops_per_site=FLOPS_PER_SEGMENT_MOVE / 2.0 + 2.0,
        sweeps=sweeps,
        strategy="replica",
        allreduce_doubles=2,
    )
    kwargs.update(overrides)
    return WorkloadShape(**kwargs)


def worldline_strip_workload(
    n_sites: int, n_slices: int, sweeps: int, **overrides
) -> WorkloadShape:
    """Workload of the strip-decomposed world-line chain driver.

    Mirrors what :func:`repro.qmc.parallel.worldline_strip_program`
    executes and charges per sweep:

    * compute -- one corner proposal per unshaded plaquette (half the
      space--time sites) plus the straight-column pass, so per
      site-slice ``flops = FLOPS_PER_CORNER_MOVE / 2 + 2``;
    * halos -- the driver's own schedule at each P
      (:func:`repro.qmc.parallel.halo_traffic`): a refresh ships
      all ``2 D`` ghost columns of a rank, one aggregated message per
      neighbor rank, once a sweep on two ranks or where every piece is
      as wide as the ghost depth ``D``, more often on thinner ones.
      Spins ship as single bytes;
    * measurement -- two doubles per measurement (energy and
      magnetization partial sums folded into one vector), reduced in
      batches of up to the run loop's cap.

    Pass ``overlap=True`` to model the five-stage pipeline variant the
    driver runs under ``WorldlineStripConfig(overlap=True)``.
    """
    from repro.qmc.chains import REDUCE_BATCH
    from repro.qmc.parallel import halo_traffic
    from repro.qmc.worldline import FLOPS_PER_CORNER_MOVE

    kwargs = dict(
        lx=n_sites,
        ly=1,
        lt=n_slices,
        flops_per_site=FLOPS_PER_CORNER_MOVE / 2.0 + 2.0,
        sweeps=sweeps,
        strategy="strip",
        bytes_per_site=1,
        halo_schedule=partial(halo_traffic, "worldline_strip", (n_sites, n_slices)),
        allreduce_doubles=2,
        reduction_batch=REDUCE_BATCH,
    )
    kwargs.update(overrides)
    return WorkloadShape(**kwargs)


def ising_block_workload(
    lx: int, ly: int, lt: int, sweeps: int, **overrides
) -> WorkloadShape:
    """Workload of the block-decomposed Ising / TFIM driver.

    Mirrors what :func:`repro.qmc.parallel.ising_block_program`
    executes and charges per sweep, from the driver's own schedule
    (:func:`repro.qmc.parallel.halo_traffic`):

    * compute -- ``FLOPS_PER_SPIN_UPDATE`` per site of each color's box:
      color 0's (the owned sites and the inner ghost ring it updates
      redundantly) and color 1's (the owned sites);
    * halos -- one refresh a sweep of every ghost plane, two a side, one
      aggregated message per neighbor rank and axis.  Spins ship as
      single bytes;
    * measurement -- four doubles per measurement (spin sum and three
      bond sums), reduced in batches of up to the run loop's cap.
    """
    from repro.qmc.classical_ising import FLOPS_PER_SPIN_UPDATE
    from repro.qmc.chains import REDUCE_BATCH
    from repro.qmc.parallel import halo_traffic

    kwargs = dict(
        lx=lx,
        ly=ly,
        lt=lt,
        flops_per_site=FLOPS_PER_SPIN_UPDATE,
        sweeps=sweeps,
        strategy="block",
        bytes_per_site=1,
        halo_schedule=partial(halo_traffic, "ising_block", (lx, ly, lt)),
        allreduce_doubles=4,
        reduction_batch=REDUCE_BATCH,
    )
    kwargs.update(overrides)
    return WorkloadShape(**kwargs)


class PerformanceModel:
    """Predict run time, speedup and communication split for a workload."""

    def __init__(self, machine: MachineModel, workload: WorkloadShape):
        self.machine = machine
        self.workload = workload

    # -- geometry helpers -------------------------------------------------
    @staticmethod
    def _process_grid(p: int) -> tuple[int, int]:
        """Most-square px*py = p factorization (px <= py)."""
        px = int(math.isqrt(p))
        while p % px:
            px -= 1
        return px, p // px

    def _neighbor_hops(self, p: int) -> int:
        """Representative hop count for a nearest-neighbor exchange.

        Adjacent subdomains map to consecutive ranks; we take the worst
        consecutive-rank distance on the machine topology, which is the
        honest number for a non-embedded mapping.
        """
        if p == 1:
            return 0
        topo: Topology = self.machine.topology(p)
        return max(topo.hops(r, (r + 1) % p) for r in range(p))

    def _collective_hop(self, p: int) -> int:
        """Representative per-round hop count inside a tree collective."""
        if p == 1:
            return 0
        topo = self.machine.topology(p)
        return max(1, topo.diameter // max(1, int(math.log2(p)) or 1))

    def _priced(self, p: int) -> tuple[int, int] | None:
        """``(updates, interior)`` of the workload's schedule, if it
        prices the compute."""
        w = self.workload
        schedule = w.halo_schedule(p) if w.halo_schedule is not None else ()
        return tuple(schedule[3:]) if len(schedule) > 3 else None

    # -- per-sweep cost terms ----------------------------------------------
    def compute_seconds_per_sweep(self, p: int) -> float:
        """Modeled compute seconds per sweep on the slowest rank."""
        w = self.workload
        priced = self._priced(p)
        if priced is not None:  # the updates it runs, redundant ones included
            sites = priced[0]
        elif w.strategy == "replica":
            sites = w.sites
        elif w.strategy == "strip":
            if p > w.lx:
                raise ValueError(f"strip decomposition needs P <= Lx ({w.lx}), got {p}")
            sites = math.ceil(w.lx / p) * w.ly * w.lt
        else:  # block
            px, py = self._process_grid(p)
            if px > w.lx or py > w.ly:
                raise ValueError(
                    f"block decomposition grid {px}x{py} exceeds lattice {w.lx}x{w.ly}"
                )
            sites = math.ceil(w.lx / px) * math.ceil(w.ly / py) * w.lt
        return self.machine.compute_time(sites * w.flops_per_site)

    def interior_fraction(self, p: int) -> float:
        """Fraction of a rank's sweep compute overlappable with its halo.

        Mirrors the executed drivers' partition tables: a strip rank of
        ``n`` owned columns has four ghost-adjacent move rows per
        independence class, a block rank loses its first/last plane
        along every axis the process grid splits.  Zero when the
        subdomain is too thin to have an interior (the drivers fall
        back to lockstep there) or when nothing is decomposed.  A
        schedule that prices the compute names its interior itself.
        """
        w = self.workload
        if p == 1 or w.strategy == "replica":
            return 0.0
        priced = self._priced(p)
        if priced is not None:
            return priced[1] / priced[0]
        if w.strategy == "strip":
            owned = math.ceil(w.lx / p)
            return max(0.0, (owned - 4.0) / owned)
        px, py = self._process_grid(p)
        bx = math.ceil(w.lx / px)
        by = math.ceil(w.ly / py)
        ix = bx - 2 if px > 1 else bx
        iy = by - 2 if py > 1 else by
        if ix <= 0 or iy <= 0:
            return 0.0
        return (ix * iy) / float(bx * by)

    def _halo_neighbors(self, p: int) -> int:
        """Neighbor ranks one halo exchange addresses, a message each."""
        w = self.workload
        if p == 1 or w.strategy == "replica":
            return 0
        if w.strategy == "strip":
            return 2  # left + right
        px, py = self._process_grid(p)
        # On a 2-wide axis east and west are the same rank.
        return min(px - 1, 2) + min(py - 1, 2)

    def halo_messages_per_sweep(self, p: int) -> int:
        """Halo messages one rank sends per sweep: the workload's
        schedule, else two half-sweeps times its neighbor ranks."""
        w = self.workload
        if w.halo_schedule is not None:
            exchanges, messages = w.halo_schedule(p)[:2]
            return exchanges * messages
        return 2 * self._halo_neighbors(p)

    def _halo_traffic(self, p: int) -> tuple[float, int, float]:
        """``(exchanges, messages, sites)`` of one rank's sweep: the
        workload's schedule, else the strategy's -- two half-sweeps, one
        message per neighbor rank, one boundary column/plane's sites
        split over them."""
        w = self.workload
        if w.halo_schedule is not None:
            return w.halo_schedule(p)[:3]
        neighbors = self._halo_neighbors(p)
        if neighbors == 0:
            return 0.0, 0, 0.0
        if w.strategy == "strip":
            sites = w.ly * w.lt
        else:
            px, py = self._process_grid(p)
            bx = math.ceil(w.lx / px)
            by = math.ceil(w.ly / py)
            # Mean sites per message: both edges of every split axis,
            # over the messages that carry them.
            edges = (2 * by * w.lt if px > 1 else 0) + (
                2 * bx * w.lt if py > 1 else 0
            )
            sites = edges / neighbors
        return max(1.0, self.halo_messages_per_sweep(p) / neighbors), neighbors, sites

    def halo_seconds_per_sweep(self, p: int) -> float:
        """Modeled halo-exchange seconds per sweep on one rank.

        Each of the sweep's halo exchanges sends and receives one
        message per neighbor rank (:meth:`_halo_traffic`).  With
        ``workload.overlap`` the critical path instead carries ``2 *
        post_overhead`` per message plus, per exchange, whatever wire
        delay the exchange's interior compute fails to hide.
        """
        w = self.workload
        n_exchanges, neighbor_messages, halo_sites = self._halo_traffic(p)
        if neighbor_messages == 0:
            return 0.0
        per_message = self.machine.message_time(
            int(halo_sites * w.bytes_per_site), self._neighbor_hops(p)
        )
        n_messages = self.halo_messages_per_sweep(p)
        if not w.overlap:
            return n_messages * per_message
        f_int = self.interior_fraction(p)
        if f_int <= 0.0:
            # Degenerate subdomain: the drivers warn and run lockstep.
            return n_messages * per_message
        interior_per_exchange = (
            f_int * self.compute_seconds_per_sweep(p) / n_exchanges
        )
        posts = 2.0 * self.machine.post_overhead  # isend + irecv
        residual = max(0.0, per_message - interior_per_exchange)
        return n_messages * posts + n_exchanges * residual

    def reductions(self) -> tuple[int, int]:
        """``(allreduces in the run, measurement rows in each)``: one per
        ``reduction_batch`` measurements, the last one of what is left
        (priced as a full one)."""
        w = self.workload
        n_measured = math.ceil(w.sweeps / w.measurement_interval)
        rows = min(w.reduction_batch, n_measured)
        return math.ceil(n_measured / rows), rows

    def collective_seconds_per_sweep(self, p: int) -> float:
        """Allreduce cost amortized per sweep, and over its batch."""
        w = self.workload
        if p == 1:
            return 0.0
        _, rows = self.reductions()
        rounds = 2 * math.ceil(math.log2(p))  # reduce + bcast trees
        per_round = self.machine.message_time(
            8 * w.allreduce_doubles * rows, self._collective_hop(p)
        )
        return rounds * per_round / (w.measurement_interval * rows)

    # -- totals -------------------------------------------------------------
    def time(self, p: int) -> float:
        """Modeled wall time of the full run on ``p`` nodes."""
        if p < 1:
            raise ValueError("need at least one node")
        w = self.workload
        serial = w.serial_fraction * self.machine.compute_time(w.total_flops)
        if w.strategy == "replica":
            sweeps_per_rank = math.ceil(w.sweeps / p)
            parallel = sweeps_per_rank * (
                self.compute_seconds_per_sweep(p) + self.collective_seconds_per_sweep(p)
            )
        else:
            parallel = (1 - w.serial_fraction) * w.sweeps * (
                self.compute_seconds_per_sweep(p)
                + self.halo_seconds_per_sweep(p)
                + self.collective_seconds_per_sweep(p)
            )
            return serial + parallel
        return serial + parallel

    def speedup(self, p: int) -> float:
        return speedup(self.time(1), self.time(p))

    def efficiency(self, p: int) -> float:
        return self.speedup(p) / p

    def comm_fraction(self, p: int) -> float:
        """Fraction of per-sweep time spent in halo + collective traffic."""
        comp = self.compute_seconds_per_sweep(p)
        halo = self.halo_seconds_per_sweep(p)
        coll = self.collective_seconds_per_sweep(p)
        total = comp + halo + coll
        return (halo + coll) / total if total > 0 else 0.0

    def scaled_speedup(self, p: int) -> float:
        """Weak-scaling speedup: work grows with P (Gustafson regime).

        Defined as ``p * T_1(W) / T_p(W_p)`` with ``W_p = p*W`` -- equals
        ``p`` when halos and collectives are free.
        """
        grown = PerformanceModel(self.machine, self.workload.scaled_to(p))
        return p * self.time(1) / grown.time(p)

    def updates_per_second(self, p: int) -> float:
        """Site updates per second of the whole machine (Table 3 metric)."""
        w = self.workload
        if w.strategy == "replica":
            total_updates = w.sites * math.ceil(w.sweeps / p) * p
        else:
            total_updates = w.sites * w.sweeps
        return total_updates / self.time(p)
