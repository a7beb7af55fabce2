"""Smoke tests for the experiment drivers (downscaled for test speed).

The full-scale shape assertions live in ``benchmarks/``; here we check that
every driver runs end-to-end at small scale and emits well-formed tables.
"""

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    bench_config,
    boot,
    e01_read_latency,
    e02_write_latency,
    e03_scalability,
    e09_proxy_drain,
    e11_sharing,
)
from repro.bench.report import Table


def test_registry_covers_all_experiments():
    assert list(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 13)] + ["X1", "X2", "X3"]
    assert all(callable(fn) for fn in ALL_EXPERIMENTS.values())


def test_experiment_result_table_lookup():
    r = ExperimentResult("EX", "t", [Table(title="alpha", headers=["a"]),
                                     Table(title="beta", headers=["b"])])
    assert r.table("beta").title == "beta"
    with pytest.raises(KeyError):
        r.table("gamma")
    assert "### EX" in r.render()


def test_bench_config_preserves_mechanism_switches():
    from repro.core.config import NVM_DIRECT

    cfg = bench_config(cache_capacity=1234 * 64)(NVM_DIRECT)
    assert not cfg.enable_cache and not cfg.enable_proxy
    assert cfg.cache_capacity == 1234 * 64


def test_boot_builds_named_system():
    system = boot("nvm-direct", seed=1, num_servers=1, num_clients=1)
    assert system.name == "nvm-direct"
    assert len(system.clients) == 1


def test_e01_small_scale():
    result = e01_read_latency(sizes=(64, 4096), reps=3, seed=1)
    table = result.table("E1")
    assert len(table.rows) == 4
    assert all(len(row) == 3 for row in table.rows)
    rows = {row[0]: row[1:] for row in table.rows}
    assert rows["gengar-hot"][1] < rows["gengar-cold"][1]


def test_e02_small_scale():
    result = e02_write_latency(sizes=(256, 8192), reps=3, seed=2)
    rows = {row[0]: row[1:] for row in result.table("E2").rows}
    assert rows["gengar"][1] < rows["nvm-direct"][1]


def test_e03_small_scale():
    # Small E3c/E3d axes keep this a smoke test; the full sweeps (through
    # 128 clients) run in benchmarks/ and in the perf guard's fanout row.
    result = e03_scalability(client_counts=(1, 2), ops_per_worker=30, seed=3,
                             shard_counts=(1, 2), fanout_counts=(2, 4))
    rows = {row[0]: row[1:] for row in result.table("E3").rows}
    assert rows["gengar"][1] > rows["gengar"][0]
    shards = result.table("E3c")
    assert shards.headers == ["metric", "1", "2"]
    assert [row[0] for row in shards.rows] == ["alloc/free kops/s",
                                               "p99 latency (us)"]
    assert all(v > 0 for row in shards.rows for v in row[1:])
    fanout = result.table("E3d")
    assert fanout.headers == ["metric", "2", "4"]
    assert [row[0] for row in fanout.rows] == ["kops/s", "master pool slots"]
    assert all(v > 0 for row in fanout.rows for v in row[1:])


def test_e09_small_scale():
    result = e09_proxy_drain(burst=16, write_size=1024, seed=4)
    rows = {row[0]: row[1:] for row in result.table("E9 ").rows}
    assert all(g < n for g, n in zip(rows["gengar"], rows["nvm-direct"]))


def test_e11_small_scale():
    result = e11_sharing(share_ratios=(0.0, 1.0), num_clients=2,
                         ops_per_worker=20, seed=5)
    kops = result.table("E11").column("kops/s")
    assert kops[0] > kops[1]
