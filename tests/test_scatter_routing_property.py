"""Routing pin: the scatter scanner sends each key and band where
``split_band`` does.

:class:`repro.shard.engine.ShardScatterScanner` routes a key to
``router.shard_of_key(key)``, a single-SV band whole to
``router.shard_of(sv_q)``, and keeps
:meth:`repro.shard.router.ShardRouter.split_band` for multi-SV span
bands.  That is only sound if it is exactly what ``split_band`` gives a
single-SV band (a key's, the point band at it), on every router: random
boundary lists (duplicates that squeeze a shard empty included), SVs
drawn on, beside and between the boundaries, and batches that mix
single-SV and span bands.

The shard scanners are stand-ins that record each prefetch job and
answer a fetch or a scan with one row naming the shard and the key or
sub-band it was handed, so the comparison sees routing and gather order
and nothing else.  Per shard, the prefetch job must be the batch's
distinct keys that ``split_band`` sends there, ascending (the key
multi-get's share, cut by ``split_sorted_keys``); ``fetch()`` must
answer from the shard ``split_band`` sends the key's point band to, and
``scan()`` must equal ``BandRows.concat`` over ``split_band``'s parts —
with and without a :class:`repro.fault.supervisor.ShardSupervisor`.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peb_key import PEBKeyCodec
from repro.engine.plan import BandRequest
from repro.fault.retry import RetryPolicy
from repro.fault.supervisor import ShardSupervisor
from repro.motion.rows import BandRows
from repro.shard.engine import ShardScatterScanner
from repro.shard.router import ShardRouter
from repro.simio.scheduler import IOScheduler

CODEC = PEBKeyCodec(tid_count=3, sv_bits=6, zv_bits=4, sv_scale=1)
MAX_SV = (1 << CODEC.sv_bits) - 1
MAX_Z = (1 << CODEC.zv_bits) - 1


def rows_naming(shard, band):
    """One row that says which shard was handed which sub-band."""
    return BandRows([band.z_lo], [(shard, *band)])


def key_of(band):
    """The key of a point band."""
    return CODEC.compose_quantized(band.tid, band.sv_lo_q, band.z_lo)


def point_keys(bands):
    """The distinct keys of the point bands among ``bands``, ascending."""
    return sorted(
        {key_of(band) for band in bands if band.is_single_sv and band.z_lo == band.z_hi}
    )


class JobRecorder:
    """A shard scanner that records its prefetch jobs and names its
    fetches and scans."""

    def __init__(self, shard):
        self.shard = shard
        self.jobs = []

    def prefetch(self, keys, clock=None):
        self.jobs.append(list(keys))

    def fetch(self, key):
        return BandRows([key], [(self.shard, key)])

    def scan(self, band):
        return rows_naming(self.shard, band)

    def residency(self, tid, sv_q):
        return None


def scatter_over(router, supervised):
    deployment = SimpleNamespace(
        io=IOScheduler(None),
        supervisor=ShardSupervisor(
            router.n_shards, retry=RetryPolicy(max_attempts=2, base_backoff_us=0.0)
        )
        if supervised
        else None,
        trees=(),
        sim_clock=None,
        router=router,
        recorder=None,
    )
    scatter = ShardScatterScanner(deployment)
    scatter.scanners = [JobRecorder(shard) for shard in range(router.n_shards)]
    return scatter


@st.composite
def routed_batches(draw):
    boundaries = sorted(
        draw(st.lists(st.integers(0, MAX_SV), min_size=0, max_size=5))
    )
    if boundaries and draw(st.booleans()):
        # A duplicate boundary squeezes the shard between them empty.
        boundaries.insert(0, boundaries[0])
        boundaries.sort()
    near = sorted(
        {b + d for b in boundaries for d in (-1, 0, 1) if 0 <= b + d <= MAX_SV}
    )
    sv = (
        st.one_of(st.sampled_from(near), st.integers(0, MAX_SV))
        if near
        else st.integers(0, MAX_SV)
    )
    z = st.integers(0, MAX_Z)

    @st.composite
    def band(draw):
        tid = draw(st.integers(0, CODEC.tid_count - 1))
        z_lo, z_hi = sorted((draw(z), draw(z)))
        if draw(st.booleans()):
            sv_q = draw(sv)
            return BandRequest(tid, sv_q, sv_q, z_lo, z_hi)
        sv_lo, sv_hi = sorted((draw(sv), draw(sv)))
        return BandRequest(tid, sv_lo, sv_hi, draw(z), draw(z))

    return ShardRouter(CODEC, boundaries), draw(st.lists(band(), max_size=24))


def expected_jobs(router, bands):
    jobs = {}
    for band in bands:
        if band.is_single_sv and band.z_lo == band.z_hi:
            ((shard, _),) = router.split_band(band)
            jobs.setdefault(shard, set()).add(key_of(band))
    return {shard: sorted(keys) for shard, keys in jobs.items()}


@settings(max_examples=300, deadline=None)
@given(batch=routed_batches(), supervised=st.booleans())
def test_prefetch_jobs_are_the_point_keys_split_band_routes(batch, supervised):
    router, bands = batch
    scatter = scatter_over(router, supervised)
    scatter.prefetch(point_keys(bands))
    handed = {
        scanner.shard: scanner.jobs for scanner in scatter.scanners if scanner.jobs
    }
    assert handed == {shard: [job] for shard, job in expected_jobs(router, bands).items()}


@settings(max_examples=300, deadline=None)
@given(batch=routed_batches(), supervised=st.booleans())
def test_fetch_answers_from_the_shard_split_band_routes_the_key_to(batch, supervised):
    router, bands = batch
    scatter = scatter_over(router, supervised)
    keys = point_keys(bands)
    for key in keys:
        tid, sv_q, zv = CODEC.decompose(key)
        ((shard, _),) = router.split_band(BandRequest(tid, sv_q, sv_q, zv, zv))
        assert scatter.fetch(key).records == [(shard, key)]
    assert scatter.scan_calls == len(keys)


@settings(max_examples=300, deadline=None)
@given(batch=routed_batches(), supervised=st.booleans())
def test_scan_gathers_split_bands_parts(batch, supervised):
    router, bands = batch
    scatter = scatter_over(router, supervised)
    for band in bands:
        expected = BandRows.concat(
            [rows_naming(shard, sub) for shard, sub in router.split_band(band)]
        )
        assert scatter.scan(band) == expected
    assert scatter.scan_calls == len(bands)


def test_single_sv_bands_on_a_squeezed_boundary_route_past_it():
    # Boundaries (8, 8): shard 1 owns no SV, so SV 8 belongs to shard 2.
    router = ShardRouter(CODEC, (8, 8))
    scatter = scatter_over(router, supervised=False)
    bands = [
        BandRequest(0, 7, 7, 5, 5),
        BandRequest(1, 8, 8, 2, 2),
        BandRequest(0, 7, 9, 3, 4),
        BandRequest(0, 8, 8, 0, MAX_Z),
    ]
    key = CODEC.compose_quantized
    scatter.prefetch(point_keys(bands))
    assert [scanner.jobs for scanner in scatter.scanners] == [
        [[key(0, 7, 5)]],
        [],
        [[key(1, 8, 2)]],
    ]
    assert scatter.fetch(key(1, 8, 2)).records == [(2, key(1, 8, 2))]
    assert scatter.scan(bands[1]) == rows_naming(2, bands[1])
