"""IBConfig fails fast on timing/size fields the model cannot run with.

Each rule is checked twice: at construction, and at cluster build for a
config whose field was edited after construction (configs are plain
dataclasses and are routinely tweaked in place).
"""

import pytest

from repro.cluster import Cluster, TestbedConfig
from repro.ib import IBConfig
from repro.ib.types import TIME_FIELDS


def _built_after_edit(**fields):
    cfg = TestbedConfig(nodes=2)
    for name, value in fields.items():
        setattr(cfg.ib, name, value)
    Cluster(cfg)


def _rejected(field, value):
    with pytest.raises(ValueError, match=field):
        IBConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        _built_after_edit(**{field: value})


def test_defaults_are_valid():
    IBConfig().validate()
    Cluster(TestbedConfig(nodes=2))


@pytest.mark.parametrize("field", TIME_FIELDS)
def test_negative_duration_names_the_field(field):
    # dma_startup_ns=-5000 used to inject into the past, failing deep in
    # the kernel's scheduler rather than at the config
    _rejected(field, -5000)


@pytest.mark.parametrize("field", TIME_FIELDS)
def test_fractional_duration_names_the_field(field):
    _rejected(field, 250.5)


@pytest.mark.parametrize("rate", [0, 0.0, -0.9, float("nan")])
def test_pci_rate_must_be_positive(rate):
    _rejected("pci_bytes_per_ns", rate)


@pytest.mark.parametrize("mtu", [40, 16])
def test_mtu_must_exceed_packet_header(mtu):
    _rejected("mtu_bytes", mtu)


@pytest.mark.parametrize("field", ["sq_depth", "rq_depth", "cq_depth"])
@pytest.mark.parametrize("depth", [0, -1, 2.0])
def test_queue_depths_are_at_least_one(field, depth):
    _rejected(field, depth)


@pytest.mark.parametrize("factor", [0.5, 0, -2.0, float("nan")])
def test_rnr_backoff_factor_at_least_one(factor):
    _rejected("rnr_backoff_factor", factor)
