"""MPIConfig fails fast on timing/size fields the model cannot run with.

Each rule is checked twice: at construction, and at cluster build for a
config whose field was edited after construction (configs are plain
dataclasses and are routinely tweaked in place).
"""

import pytest

from repro.cluster import Cluster, TestbedConfig
from repro.mpi import MPIConfig


def _built_after_edit(**fields):
    cfg = TestbedConfig(nodes=2)
    for name, value in fields.items():
        setattr(cfg.mpi, name, value)
    Cluster(cfg)


def test_defaults_are_valid():
    MPIConfig().validate()
    Cluster(TestbedConfig(nodes=2))


@pytest.mark.parametrize("field", MPIConfig.OVERHEAD_FIELDS)
def test_negative_overhead_names_the_field(field):
    with pytest.raises(ValueError, match=field):
        MPIConfig(**{field: -1})
    with pytest.raises(ValueError, match=field):
        _built_after_edit(**{field: -1})


@pytest.mark.parametrize("field", MPIConfig.OVERHEAD_FIELDS)
def test_fractional_overhead_names_the_field(field):
    with pytest.raises(ValueError, match=field):
        MPIConfig(**{field: 250.5})
    with pytest.raises(ValueError, match=field):
        _built_after_edit(**{field: 250.5})


@pytest.mark.parametrize("rate", [0, 0.0, -2.0, float("nan")])
def test_memcpy_rate_must_be_positive(rate):
    # 0 used to surface as a ZeroDivisionError deep in the copy model
    with pytest.raises(ValueError, match="memcpy_bytes_per_ns"):
        MPIConfig(memcpy_bytes_per_ns=rate)
    with pytest.raises(ValueError, match="memcpy_bytes_per_ns"):
        _built_after_edit(memcpy_bytes_per_ns=rate)


@pytest.mark.parametrize("vbuf", [32, 64])
def test_vbuf_must_exceed_header(vbuf):
    # a 32-byte vbuf under the 64-byte header used to run to a wrong answer
    with pytest.raises(ValueError, match="vbuf_bytes"):
        MPIConfig(vbuf_bytes=vbuf)
    with pytest.raises(ValueError, match="vbuf_bytes"):
        _built_after_edit(vbuf_bytes=vbuf)
