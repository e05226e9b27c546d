"""repro: reproduction of "Scalable Power-Efficient Kilo-Core
Photonic-Wireless NoC Architectures" (Kodi et al., IPDPS 2018).

Public API tour
---------------

Build a network, drive traffic, account power::

    from repro import build_own256, Simulator, SyntheticTraffic, measure_power

    built = build_own256()
    sim = Simulator(built.network,
                    traffic=SyntheticTraffic(256, "UN", 0.03, 4, seed=1))
    sim.run(2000)
    print(sim.summary())
    print(measure_power(built, sim, config_id=4, scenario=1).as_dict())

Subpackages:

* :mod:`repro.noc`        -- the cycle-level NoC simulator substrate,
* :mod:`repro.core`       -- the OWN architecture (the paper's contribution),
* :mod:`repro.topologies` -- CMESH / wCMESH / OptXB / p-Clos baselines,
* :mod:`repro.traffic`    -- synthetic patterns, generators, traces,
* :mod:`repro.rf`         -- OOK transceiver circuit models (Figs. 3-4),
* :mod:`repro.power`      -- DSENT-style / photonic / wireless power models,
* :mod:`repro.photonics`  -- component inventories and loss budgets,
* :mod:`repro.analysis`   -- sweeps, bisection accounting, experiment
  runners for every table and figure.

Nothing is imported up front: each name below, and each sub-package as an
attribute (``repro.analysis``), is resolved on first use (PEP 562), so a
run loads only the sub-packages it touches.
"""

import importlib

__version__ = "1.0.0"

#: Re-exported name -> the sub-package that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("Network", "Packet", "Simulator", "SimulationDeadlock", "Router", "RoutingFunction"),
        "repro.noc",
    ),
    **dict.fromkeys(
        ("build_own256", "build_own1024", "OWN256_DIMS", "OWN1024_DIMS", "OwnDims"),
        "repro.core",
    ),
    **dict.fromkeys(
        ("BuiltTopology", "build_cmesh", "build_wcmesh", "build_optxb", "build_pclos"),
        "repro.topologies",
    ),
    **dict.fromkeys(
        ("SyntheticTraffic", "ScriptedTraffic", "TrafficPattern", "TrafficTrace"),
        "repro.traffic",
    ),
    **dict.fromkeys(
        ("measure_power", "PowerModel", "PowerBreakdown", "SCENARIOS", "CONFIGURATIONS"),
        "repro.power",
    ),
    **dict.fromkeys(("EXPERIMENTS", "load_sweep", "ExperimentResult"), "repro.analysis"),
}

__all__ = ["__version__", *_EXPORTS]

_SUBPACKAGES = (
    "analysis", "core", "faults", "noc", "obs", "photonics", "power",
    "rf", "runtime", "telemetry", "thermal", "topologies", "traffic", "utils",
    "workloads",
)  # fmt: skip


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    elif name in _SUBPACKAGES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBPACKAGES})
