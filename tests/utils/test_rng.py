"""RNG stream management: determinism, independence, namespacing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import RngStreams, ScalarStreams, derive_seed, sha256


class TestSha256:
    """The builtin SHA-256 is OpenSSL's digest, so no seed or cache key
    moves with the implementation."""

    @pytest.mark.parametrize(
        "payload", [b"", b"abc", b"(3, 'traffic', 7)", bytes(range(256)) * 1000]
    )
    def test_matches_hashlib(self, payload):
        assert sha256(payload).digest() == hashlib.sha256(payload).digest()

    def test_incremental_updates_match_hashlib(self):
        ours, ref = sha256(), hashlib.sha256()
        for chunk in (b"code.py", b"print(1)\n" * 500, b"|schema=4"):
            ours.update(chunk)
            ref.update(chunk)
        assert ours.hexdigest() == ref.hexdigest()

    def test_not_openssl(self):
        assert not type(sha256()).__module__.startswith("_hashlib")


class TestDeriveSeed:
    @pytest.mark.parametrize(
        "key, seed",
        [
            ((3, "traffic", 7), 5236949863457921734),
            ((42, "traffic", 7), 8887319588855315818),
            ((0,), 7165777869350885009),
            ((7, "linklayer", "wch1"), 2756564533217331975),
            ((2**62, "spawn", "sub"), 6810364721831329397),
        ],
    )
    def test_committed_values(self, key, seed):
        # Every stream of every golden is seeded through these values.
        assert derive_seed(*key) == seed

    def test_deterministic(self):
        assert derive_seed(42, "traffic", 7) == derive_seed(42, "traffic", 7)

    def test_key_sensitivity(self):
        assert derive_seed(42, "traffic", 7) != derive_seed(42, "traffic", 8)

    def test_master_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(43, "x")

    def test_positive_63_bit(self):
        for seed in (0, 1, 2**31, 123456789):
            child = derive_seed(seed, "k")
            assert 0 <= child < 2**63

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_always_in_range(self, master, key):
        assert 0 <= derive_seed(master, key) < 2**63


class TestRngStreams:
    def test_same_key_same_generator_object(self):
        streams = RngStreams(1)
        assert streams.get("a", 0) is streams.get("a", 0)

    def test_streams_reproducible_across_instances(self):
        a = RngStreams(99).get("traffic", "UN").random(5)
        b = RngStreams(99).get("traffic", "UN").random(5)
        assert np.allclose(a, b)

    def test_streams_independent(self):
        s = RngStreams(1)
        a = s.get("a").random(100)
        b = s.get("b").random(100)
        assert not np.allclose(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RngStreams(7)
        first = s1.get("x").random(3)
        s2 = RngStreams(7)
        s2.get("unrelated")  # extra consumer created first
        second = s2.get("x").random(3)
        assert np.allclose(first, second)

    def test_spawn_namespacing(self):
        parent = RngStreams(5)
        child1 = parent.spawn("sub")
        child2 = parent.spawn("sub")
        assert child1.master_seed == child2.master_seed
        assert child1.master_seed != parent.master_seed

    def test_spawn_distinct_keys(self):
        parent = RngStreams(5)
        assert parent.spawn("a").master_seed != parent.spawn("b").master_seed


class TestScalarStreams:
    def test_stream_is_the_derived_seed_of_its_key(self):
        import random

        streams = ScalarStreams(7, "linklayer")
        expected = random.Random(derive_seed(7, "linklayer", "wch1.A0->B2"))
        assert [streams["wch1.A0->B2"].random() for _ in range(3)] == [
            expected.random() for _ in range(3)
        ]

    def test_names_do_not_perturb_each_other(self):
        a = ScalarStreams(3, "p")
        first = a["x"].random()
        b = ScalarStreams(3, "p")
        b["y"].random()
        assert b["x"].random() == first
