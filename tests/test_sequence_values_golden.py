"""Sequence values, float for float, against commit ``d9c816b``.

Every PEB-key, page image and I/O count downstream is a function of the
sequence values, and those of Equation 4's degrees, so an operation
reordered in the compatibility arithmetic — or an encoder that came to
depend on the order the directory enumerates its edges in — has to fail
here and not only in a benchmark digest.  ``sequence_values_golden.json``
was dumped from :func:`observed` at ``d9c816b``, when each related pair
was still compared through ``related_pairs()`` -> ``pair_compatibility()``
in policy insertion order:

* ``figure5_400x8`` — Figure 5 on the population of
  ``PolicyGenerator(1000, 1440, Random("golden")).generate(range(400), 8, 0.7)``;
* ``encoders_300x8`` — Figure 5 and the BFS encoder (which breaks
  compatibility ties through a heap fed in adjacency order) on a
  generated single- and a multi-policy store: assignment digest, group
  count, related-pair count;
* ``payload_300x8`` — the ``store_to_dict`` payload of those two stores
  and of the stores ``store_from_dict`` rebuilds from it, so checkpoints
  written before and after the one-table directory are interchangeable.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.encoders import make_encoder
from repro.core.sequencing import assign_sequence_values
from repro.policy.serialization import store_from_dict, store_to_dict
from repro.workloads.policies import MultiPolicyGenerator, PolicyGenerator

GOLDEN = Path(__file__).with_name("sequence_values_golden.json")
S = 1000.0**2


def digest(sequence_values):
    """sha256 over ``sorted((uid, sv.hex()))``."""
    rows = sorted((uid, sv.hex()) for uid, sv in sequence_values.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def payload_digest(store):
    return hashlib.sha256(json.dumps(store_to_dict(store)).encode()).hexdigest()


def observed():
    store = PolicyGenerator(1000, 1440, random.Random("golden")).generate(
        range(400), 8, 0.7
    )
    result = {
        "figure5_400x8": digest(
            assign_sequence_values(list(range(400)), store, S).sequence_values
        ),
        "encoders_300x8": {},
        "payload_300x8": {},
    }
    uids = list(range(300))
    for kind, generator in (("single", PolicyGenerator), ("multi", MultiPolicyGenerator)):
        store = generator(1000.0, 1440.0, random.Random(f"golden:{kind}")).generate(
            uids, 8, 0.7
        )
        reports = {
            name: make_encoder(name).encode(uids, store, S) for name in ("figure5", "bfs")
        }
        result["encoders_300x8"][kind] = {
            name: [
                digest(report.sequence_values),
                report.group_count,
                report.related_pair_count,
            ]
            for name, report in reports.items()
        }
        store.set_sequence_values(reports["figure5"].sequence_values)
        restored = store_from_dict(json.loads(json.dumps(store_to_dict(store))))
        result["payload_300x8"][kind] = [payload_digest(store), payload_digest(restored)]
    return result


def test_sequence_values_and_payloads_match_golden():
    assert observed() == json.loads(GOLDEN.read_text())
