"""The record contract: keyword construction with defaults, the repr, immutability, equality."""

from __future__ import annotations

import pytest

from ecs_diqkd import cli
from ecs_diqkd.optimize import MuOptimum, SweepConfig, SweepRow, find_crossover
from ecs_diqkd.oracle import PointCheck, VerificationReport
from ecs_diqkd.params import DetectorStats, KeyRatePoint, ParameterError, ProtocolParams

STATS = DetectorStats(q_zz=0.5, s=2.5, e_zz=0.01)
CHECK = PointCheck(mu=0.1, eta=0.5, p_d=0.0, e_d=0.01, dev_q_zz=1e-12, dev_s=2e-12,
                   dev_e_zz=3e-12, dev_e_zz_literal=4e-3)

# (build a record by keyword, leaving defaulted fields out; its repr; a field)
RECORDS = [
    (lambda: DetectorStats(q_zz=0.5, s=2.5, e_zz=0.01),
     "DetectorStats(q_zz=0.5, s=2.5, e_zz=0.01)", "s"),
    (lambda: ProtocolParams(mu=0.1),
     "ProtocolParams(mu=0.1, beta_db_per_km=0.2, eta_d=0.8, p_d=1e-07, e_d=0.0, "
     "distance_km=0.0)", "mu"),
    (lambda: KeyRatePoint(rate=0.1, stats=STATS, params=ProtocolParams(mu=0.1)),
     "KeyRatePoint(rate=0.1, stats=DetectorStats(q_zz=0.5, s=2.5, e_zz=0.01), "
     "params=ProtocolParams(mu=0.1, beta_db_per_km=0.2, eta_d=0.8, p_d=1e-07, e_d=0.0, "
     "distance_km=0.0))", "rate"),
    (lambda: MuOptimum(mu_star=0.25, rate_star=0.01),
     "MuOptimum(mu_star=0.25, rate_star=0.01, flagged=False)", "flagged"),
    (lambda: SweepConfig(),
     "SweepConfig(l_min_km=0.0, l_max_km=600.0, l_step_km=5.0, beta_db_per_km=0.2, eta_d=0.8, "
     "p_d=1e-07, e_d=0.0, mu=None, protocols=('ecs', 'bell', 'plob'))", "protocols"),
    (lambda: SweepRow(distance_km=5.0),
     "SweepRow(distance_km=5.0, mu=None, q_zz=None, s=None, e_zz=None, rate_ecs=None, "
     "rate_bell=None, rate_plob=None, flagged=False, bell_q_zz=None, bell_s=None, "
     "bell_e_zz=None)", "rate_ecs"),
    (lambda: PointCheck(mu=0.1, eta=0.5, p_d=0.0, e_d=0.01, error="cutoff"),
     "PointCheck(mu=0.1, eta=0.5, p_d=0.0, e_d=0.01, dev_q_zz=nan, dev_s=nan, dev_e_zz=nan, "
     "dev_e_zz_literal=nan, error='cutoff')", "error"),
    (lambda: VerificationReport(points=[CHECK], tol=1e-8, n_max=30, eta_d_literal=0.8),
     f"VerificationReport(points=[{CHECK!r}], tol=1e-08, n_max=30, eta_d_literal=0.8)", "tol"),
]
IDS = [expected.partition("(")[0] for _, expected, _ in RECORDS]


@pytest.mark.parametrize("build, expected, _", RECORDS, ids=IDS)
def test_keyword_construction_and_repr(build, expected, _):
    assert repr(build()) == expected


@pytest.mark.parametrize("build, _, field", RECORDS, ids=IDS)
def test_records_are_immutable(build, _, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("build, _, field", RECORDS, ids=IDS)
def test_equality(build, _, field):
    record = build()
    assert record == build()
    assert record != record._replace(**{field: "other"})
    # Records are tuples: they iterate in field order and equal the plain tuple.
    assert list(record) == [getattr(record, name) for name in record._fields]
    assert record == tuple(record)


def test_validating_records_check_positional_and_keyword_arguments():
    with pytest.raises(ParameterError):
        DetectorStats(1.5, 2.0, 0.0)
    with pytest.raises(ParameterError):
        DetectorStats(q_zz=0.5, s=3.0, e_zz=0.0)
    with pytest.raises(ParameterError):
        ProtocolParams(0.1, eta_d=0.0)
    with pytest.raises(ParameterError):
        KeyRatePoint(rate=0.6, stats=STATS, params=ProtocolParams(mu=0.1))
    with pytest.raises(ParameterError):
        SweepConfig(0.0, 10.0, 1.0, protocols=("ecs", "morse"))
    with pytest.raises(TypeError):
        SweepConfig(l_max=10.0)


def test_crossover_checks_its_pair():
    """``_replace`` skips the checks in ``__new__``; ``find_crossover`` must not."""
    with pytest.raises(ParameterError, match="morse"):
        find_crossover(("ecs", "morse"), SweepConfig(), (1.0, 400.0))


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["rates"], {}),
        (["crossover"], {}),
        (["sweep"], {"l_min": "l_min_km", "l_max": "l_max_km", "l_step": "l_step_km",
                     "protocols": "protocols"}),
    ],
    ids=["rates", "crossover", "sweep"],
)
def test_flag_defaults_are_the_config_defaults(argv, flags):
    """The class attributes of a namedtuple are field accessors, not defaults."""
    args = cli.build_parser().parse_args(argv)
    config = SweepConfig()
    channel = {"beta": "beta_db_per_km", "eta_d": "eta_d", "p_d": "p_d", "e_d": "e_d"}
    for dest, field in {**channel, **flags}.items():
        assert getattr(args, dest) == getattr(config, field), dest
