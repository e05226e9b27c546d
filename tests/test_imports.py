"""The package loads what a run uses: ``import repro`` imports nothing up
front, and its re-exports and sub-packages resolve on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: ``hashlib`` loads OpenSSL's libcrypto (~3.5 MiB resident); seeds and
#: digests use CPython's builtin SHA-256 (``repro.utils.rng.sha256``).
OPENSSL = {"hashlib", "_hashlib"}


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter on this checkout; return the JSON
    it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_engine_import_skips_analysis_and_telemetry():
    loaded, resolved = _fresh(
        "import json, sys\n"
        "import repro.runtime.executor\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')\n"
        "from repro import build_own256, Simulator, SyntheticTraffic, measure_power, EXPERIMENTS\n"
        "import repro\n"
        "resolved = [repro.analysis.load_sweep.__module__, Simulator.__module__,\n"
        "            measure_power.__module__, len(EXPERIMENTS) > 0]\n"
        "print(json.dumps([loaded, resolved]))\n"
    )
    assert not [m for m in loaded if m.startswith(("repro.analysis", "repro.telemetry"))]
    # The engine needs the bus and the sampler, not the hub or live view.
    assert not [m for m in loaded if m in ("repro.obs.hub", "repro.obs.live")]
    assert len(loaded) <= 45, loaded
    assert resolved == [
        "repro.analysis.sweep", "repro.noc.simulator", "repro.power.accounting", True
    ]


def test_engine_import_loads_no_openssl():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.runtime.executor\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert not OPENSSL & set(loaded)


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    assert "analysis" in dir(repro)


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from repro import *", namespace)
    assert {"Simulator", "EXPERIMENTS", "measure_power"} <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name


def test_plain_runs_import_no_numpy():
    """Synthetic traffic draws scalars and latency statistics are exact
    Python: a plain run, power fold included, loads neither NumPy nor a
    worker pool, and its seeds and digests load no OpenSSL."""
    loaded = _fresh(
        "import json, sys\n"
        "from repro.runtime.executor import execute_inline\n"
        "from repro.runtime.spec import RunSpec\n"
        "for topology, pattern in [('own256', 'UN'), ('own256', 'BR'),\n"
        "                          ('own256', 'HOT'), ('own1024', 'UN')]:\n"
        "    execute_inline(RunSpec.create(topology, pattern=pattern, rate=0.02, cycles=200,\n"
        "                                  warmup=50, drain=300, power=((4, 1),)))\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    assert "numpy" not in loaded and "multiprocessing" not in loaded
    assert not OPENSSL & set(loaded)


def test_cli_sweep_imports_no_numpy():
    """``repro sweep`` resolves the analysis names it uses and no others,
    and loads no NumPy or OpenSSL."""
    argv = ["sweep", "own256", "--rates", "0.01", "--cycles", "200", "--warmup", "50"]
    loaded = _fresh(
        "import json, sys\n"
        "from repro.__main__ import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.analysis.sweep" in loaded
    assert "repro.analysis.experiments" not in loaded
    assert not [m for m in loaded if m.split(".")[0] in ("numpy", "multiprocessing")]
    assert not OPENSSL & set(loaded)


def test_fault_runs_import_no_numpy():
    """The fault plant draws scalars from the stdlib: a bursty campaign with
    recovery and telemetry, and a channel death with failover, load no
    NumPy (and no OpenSSL)."""
    loaded, summary = _fresh(
        "import json, sys\n"
        "from repro.runtime.executor import execute_inline\n"
        "from repro.runtime.spec import ControlSpec, FaultSpec, RunSpec\n"
        "ft = {'with_reconfiguration': True}\n"
        "bursty = FaultSpec(kind='bursty', burst_rate=0.01, burst_duration=100,\n"
        "                   snr_penalty_db=14.0, max_channel=4)\n"
        "death = FaultSpec(kind='death', at=100, failover=True)\n"
        "*_, r = execute_inline(RunSpec.create('own256_ft', topology_kwargs=ft, rate=0.02,\n"
        "                                      cycles=600, warmup=100, faults=bursty,\n"
        "                                      control=ControlSpec(epoch_cycles=100),\n"
        "                                      telemetry=True, power=((4, 1),)))\n"
        "execute_inline(RunSpec.create('own256_ft', topology_kwargs=ft, rate=0.02,\n"
        "                              cycles=400, warmup=100, drain=5000, faults=death))\n"
        "print(json.dumps([sorted({m.split('.')[0] for m in sys.modules}), r.summary]))\n"
    )
    assert "numpy" not in loaded
    assert not OPENSSL & set(loaded)
    # The campaign corrupted traffic, failed channels over and probed them.
    assert summary["flits_retransmitted"] > 0 and summary["channels_failed_over"] > 0
    assert summary["control_decisions"] > 0
