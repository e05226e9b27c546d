"""Integration tests for the CRC + ACK/NACK link layer on OWN-256."""

import pytest

from repro.core.faults import build_fault_tolerant_own256
from repro.faults import (
    FaultCampaign,
    FaultLayer,
    LinkLayerConfig,
    PermanentFault,
    TransientFault,
)
from repro.noc import Simulator
from repro.noc.invariants import audit_network
from repro.traffic import SyntheticTraffic


def _run(campaign=None, cycles=400, config=None, seed=7, rate=0.02):
    built = build_fault_tolerant_own256()
    layer = FaultLayer(
        built.network, campaign=campaign, config=config, seed=5
    )
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(256, "UN", rate, 4, seed=seed),
        warmup_cycles=100,
        faults=layer,
    )
    sim.run(cycles)
    assert sim.drain(30_000)
    return built, sim, layer


class TestTransparency:
    def test_zero_fault_run_is_bit_exact(self):
        """The flagship guarantee: an installed-but-idle fault layer must
        not perturb a single latency sample."""
        built = build_fault_tolerant_own256()
        baseline = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.02, 4, seed=7),
            warmup_cycles=100,
        )
        baseline.run(400)
        assert baseline.drain(30_000)
        base_lat = tuple(baseline.stats.latencies)
        base_summary = baseline.summary()

        _, sim, _ = _run(campaign=FaultCampaign())
        assert tuple(sim.stats.latencies) == base_lat
        assert sim.summary() == base_summary
        retx = sim.stats.retransmission_summary()
        # ACKs flow (the protocol is on) but nothing else fires.
        assert retx["acks"] > 0
        for key, value in retx.items():
            if key != "acks":
                assert value == 0, (key, value)

    def test_healthy_links_never_sample_rng(self):
        _, sim, layer = _run(campaign=None)
        for state in layer.protected.values():
            assert state.corrupt_attempts == 0
            assert state.lost_attempts == 0


class TestRetransmission:
    def test_transient_burst_recovers_all_traffic(self):
        campaign = FaultCampaign(
            [TransientFault(at=100, duration=200, snr_penalty_db=5.0,
                            target="wireless")]
        )
        _, sim, _ = _run(campaign=campaign, cycles=500)
        assert sim.stats.packets_ejected == sim.stats.packets_created
        retx = sim.stats.retransmission_summary()
        assert retx["nacks"] > 0
        assert retx["packets_retransmitted"] > 0
        assert retx["flits_dropped"] > 0
        audit_network(sim)

    def test_forced_corruption_no_loss(self):
        """Every wireless flit fails CRC with p=0.2; all packets still
        arrive (retried until clean) and conservation holds."""
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network, seed=5)
        for link, state in layer.protected.items():
            if link.kind == "wireless":
                state.forced_flit_error_prob = 0.2
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.015, 4, seed=3),
            faults=layer,
        )
        sim.run(400)
        assert sim.drain(30_000)
        assert sim.stats.packets_ejected == sim.stats.packets_created
        assert sim.stats.retransmission_summary()["nacks"] > 0
        audit_network(sim)

    def test_photonic_mwsr_retransmission_holds_the_token(self):
        """A retransmission over a shared waveguide requests the token,
        sends each flit only while its link holds it, and releases it with
        the tail; every packet still arrives and the audit is clean."""
        built = build_fault_tolerant_own256()
        layer = FaultLayer(built.network, seed=5)
        writers = [
            link for link in layer.protected
            if link.kind == "photonic" and len(link.medium.members) > 1
        ]  # fmt: skip
        assert writers
        for link in writers:
            layer.protected[link].forced_flit_error_prob = 0.2
        seen = {"started": 0, "flits": 0, "tails": 0}
        try_start, send_next_flit = layer._try_start, layer._send_next_flit

        def started(link, now):
            tx = try_start(link, now)
            if tx is not None and link.medium is not None:
                assert link in link.medium.requesters, (link.name, now)
                seen["started"] += 1
            return tx

        def sent(sim, link, tx, now):
            is_tail = tx.idx == tx.packet.size_flits - 1
            if link.medium is not None:
                assert link.medium.holder is link, (link.name, now)
            moved = send_next_flit(sim, link, tx, now)
            if link.medium is not None:
                seen["flits"] += 1
                if is_tail:
                    assert link.medium.holder is None, (link.name, now)
                    seen["tails"] += 1
            return moved

        layer._try_start, layer._send_next_flit = started, sent
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.015, 4, seed=3),
            faults=layer,
        )
        sim.run(300)
        assert sim.drain(30_000)
        assert seen["started"] > 0
        assert seen["tails"] == seen["started"]
        assert seen["flits"] == 4 * seen["started"]
        assert sum(layer.protected[link].retransmissions for link in writers) > 0
        assert sim.stats.packets_ejected == sim.stats.packets_created
        audit_network(sim)

    def test_retransmission_energy_is_accounted(self):
        from repro.power import measure_power

        campaign = FaultCampaign(
            [TransientFault(at=50, duration=300, snr_penalty_db=5.5,
                            target="wireless")]
        )
        built, sim, _ = _run(campaign=campaign, cycles=500)
        clean_bits = sum(
            l.bits_retransmitted for l in built.network.links
        )
        assert clean_bits > 0
        power = measure_power(built, sim)
        assert power.retx_overhead_w > 0.0
        assert power.total_w > power.retx_overhead_w


class TestPermanentFaultTargets:
    """A permanent fault resolves its target to protected links: every one
    (``None``), a link or a link kind by name, or a list of link names."""

    def _penalties(self, target):
        built = build_fault_tolerant_own256()
        campaign = FaultCampaign(
            [PermanentFault(at=10, target=target, kind="trim_drift", drift_db=2.5)]
        )
        layer = FaultLayer(built.network, campaign=campaign)
        sim = Simulator(built.network, faults=layer)
        sim.run(20)
        return {link.name: state.snr_penalty_db for link, state in layer.protected.items()}

    def test_trim_drift_adds_to_the_penalty(self):
        name = next(iter(self._penalties(None)))
        penalties = self._penalties(name)
        assert penalties[name] == 2.5
        assert all(p == 0.0 for n, p in penalties.items() if n != name)

    def test_no_target_is_every_protected_link(self):
        penalties = self._penalties(None)
        assert len(penalties) > 2
        assert set(penalties.values()) == {2.5}

    def test_name_list_resolves_the_named_links(self):
        names = sorted(self._penalties(None))[:2]
        penalties = self._penalties(names)
        assert {n for n, p in penalties.items() if p} == set(names)
        assert all(penalties[n] == 2.5 for n in names)


class TestConfigValidation:
    def test_backoff_ordering_validated(self):
        with pytest.raises(ValueError):
            LinkLayerConfig(backoff_base=8, backoff_cap=4)

    def test_replay_capacity_positive(self):
        with pytest.raises(ValueError):
            LinkLayerConfig(replay_capacity=0)

    @pytest.mark.parametrize("field", ["ack_latency", "max_retries"])
    def test_counts_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            LinkLayerConfig(**{field: 0})

    def test_install_rejects_slow_links(self):
        """A link whose round trip exceeds the timeout cannot distinguish
        a lost attempt from a slow ACK; install refuses it."""
        built = build_fault_tolerant_own256()
        layer = FaultLayer(
            built.network, config=LinkLayerConfig(timeout=2, ack_latency=1)
        )
        with pytest.raises(ValueError):
            Simulator(built.network, faults=layer)
