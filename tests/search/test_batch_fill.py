"""The batch fill against the reference functions, entry for entry.

A bound batch fills every communication and bubble table through the
compiled sweep's term functions, run on NumPy key columns.  Here each
seeded scenario's tables are rebuilt one key at a time, in first-seen
order, straight from the reference functions of
:mod:`repro.core.communication` and :mod:`repro.pipeline.schedule`,
and compared by ``repr``: same keys, same order, same bits.  So is a
fresh compiled sweep filled one spec at a time through its scalar
accessors.  Keys whose reference raises must read NaN in the batch, stay
out of every table, and raise the same error from the scalar accessor.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import keys
from repro.core.communication import (
    CommEnvironment,
    gradient_comm_components,
    moe_comm_time,
    pp_comm_time,
    tp_comm_time,
    zero_gather_time,
)
from repro.core.model import AMPeD
from repro.core.zero import ZeroConfig
from repro.errors import MappingError
from repro.hardware.catalog import megatron_a100_cluster
from repro.parallelism.mapping import enumerate_mappings
from repro.parallelism.microbatch import replica_batch_size
from repro.parallelism.topology import (
    FULLY_CONNECTED,
    TREE,
    PairwiseAllToAll,
    RingAllReduce,
)
from repro.pipeline.schedule import bubble_prefactor
from repro.search.compiler import CompiledSweep
from repro.search.tuning import candidate_microbatch_counts
from repro.search.vectorized import BoundBatch
from repro.transformer.zoo import MODELS

SEED = 20261020
RATIOS = (-0.0, 0.0, 0.3, 1.0, 1.7)


class PowerOfTwoRing(RingAllReduce):
    """A ring that refuses groups whose size is not a power of two."""

    name = "power-of-two-ring"

    def steps(self, n_participants: int) -> int:
        if n_participants & (n_participants - 1):
            raise MappingError(f"{n_participants} ranks: not a power of 2")
        return super().steps(n_participants)


class NodePairAllToAll(PairwiseAllToAll):
    """An all-to-all whose factor refuses odd node counts."""

    name = "node-pair-alltoall"

    def factor(self, n_participants: int) -> float:
        if n_participants % 2:
            raise MappingError(f"{n_participants} nodes: odd")
        return super().factor(n_participants)


#: GLaM's MoE layers with 96 heads, so TP degrees need not be 2^k.
MOE_96_HEADS = replace(MODELS["glam-1.2t"], name="GLaM-96h", n_heads=96,
                       hidden_size=6144)

#: (model, nodes, accelerators per node, global batch, AMPeD options).
SCENARIOS = {
    "ring": ("gpt3-175b", 12, 6, 1440, {}),
    "tree-intra-fc-inter": ("megatron-1t", 20, 8, 2000, dict(
        intra_topology=TREE, inter_topology=FULLY_CONNECTED)),
    "fc-intra-tree-inter": ("megatron-145b", 6, 6, 1080, dict(
        intra_topology=FULLY_CONNECTED, inter_topology=TREE)),
    "explicit-zero3": ("megatron-18b", 6, 8, 960, dict(
        zero=ZeroConfig(stage=3), zero_explicit_comm=True,
        inter_topology=TREE)),
    "moe-sharded": (MOE_96_HEADS, 12, 6, 1152, dict(
        moe_volume_multiplier=2.3)),
    "moe-unsharded": ("glam-1.2t", 6, 8, 768, dict(
        moe_tp_sharding=False, moe_volume_multiplier=0.7,
        intra_topology=TREE)),
    "options": ("megatron-18b", 3, 6, 720, dict(
        include_embeddings=False, concurrent_stage_comm=False,
        bubble_model="eq8", comm_overlap_fraction=0.25)),
    "failing-topologies": ("gpt3-175b", 6, 6, 720, dict(
        intra_topology=PowerOfTwoRing(), inter_topology=PowerOfTwoRing(),
        zero=ZeroConfig(stage=3), zero_explicit_comm=True)),
    "failing-moe-factor": ("glam-1.2t", 3, 8, 384, dict(
        moe_topology=NodePairAllToAll())),
}


def _scenario(name, tune=True):
    model, n_nodes, per_node, global_batch, options = SCENARIOS[name]
    model = MODELS.get(model, model)
    base = megatron_a100_cluster()
    system = replace(base, n_nodes=n_nodes,
                     node=replace(base.node, n_accelerators=per_node,
                                  n_nics=min(per_node, base.node.n_nics)))
    template = AMPeD.for_mapping(model, system, dp=system.n_accelerators,
                                 **options)
    rng = random.Random(f"{SEED}-{name}")
    mappings = enumerate_mappings(system, model)
    specs = [replace(rng.choice(mappings),
                     expert_parallel=rng.random() < 0.5,
                     bubble_overlap_ratio=rng.choice(RATIOS),
                     n_microbatches=None if tune else rng.choice(
                         (1, 3, 5, 6, 7, 12)))
             for _ in range(60)]
    return template, global_batch, specs + specs[:15]


def _n_ubs(spec, global_batch, tune):
    return (candidate_microbatch_counts(spec, global_batch) if tune
            else [spec.microbatches])


def _environment(template, spec):
    """The environment estimate_batch builds for ``spec``."""
    explicit_zero = template.zero_explicit_comm and \
        template.zero.shards_parameters
    return CommEnvironment(
        system=template.system, parallelism=spec,
        precision=template.precision,
        intra_topology=template.intra_topology,
        inter_topology=template.inter_topology,
        moe_topology=template.moe_topology,
        zero_forward_overhead=(0.0 if explicit_zero
                               else template.zero.communication_overhead),
        moe_volume_multiplier=template.moe_volume_multiplier,
        moe_tp_sharding=template.moe_tp_sharding)


def _reference_tables(template, global_batch, specs, tune):
    """Every table filled key by key, first-seen, from the reference
    functions; ``failed`` maps a failed ``(table, key)`` to its error."""
    layers = [layer for layer, *_ in
              CompiledSweep(template, global_batch).classes]
    scale = CompiledSweep(template, global_batch).forward_scale
    model = template.model
    tables = {name: {} for name in (
        "tp_intra", "tp_inter", "pp", "moe", "bubble", "grad", "zero")}
    failed = {}

    def put(name, key, value_of):
        if key in tables[name] or (name, key) in failed:
            return
        try:
            tables[name][key] = value_of()
        except MappingError as error:
            failed[(name, key)] = str(error)

    for spec in specs:
        env = _environment(template, spec)
        batch = replica_batch_size(global_batch, spec)
        ep = spec.expert_parallel
        put("tp_intra", keys.tp_intra_key(spec),
            lambda: scale * tp_comm_time(env, model, batch, "intra"))
        put("tp_inter", keys.tp_inter_key(spec),
            lambda: scale * tp_comm_time(env, model, batch, "inter"))
        put("pp", keys.pp_key(spec), lambda: scale * max(
            pp_comm_time(env, model, batch, "intra"),
            pp_comm_time(env, model, batch, "inter")))
        put("moe", keys.moe_key(spec), lambda: scale * (
            moe_comm_time(env, model, batch) if ep else 0.0))
        put("grad", keys.gradient_key(spec), lambda: [
            tuple(gradient_comm_components(
                env, layer.gradient_parameters(ep)).values())
            for layer in layers])
        put("zero", keys.gradient_key(spec), lambda: [
            zero_gather_time(env, layer.gradient_parameters(ep))
            for layer in layers])
        for n_ub in _n_ubs(spec, global_batch, tune):
            put("bubble", (spec.pp, n_ub, spec.bubble_overlap_ratio),
                lambda: bubble_prefactor(spec.pp, n_ub,
                                         spec.bubble_overlap_ratio))
    return tables, failed


def _tables(compiled):
    """The compiled sweep's tables, named as in _reference_tables (the
    per-class tables regrouped per key)."""
    def per_key(class_tables):
        return {key: [table[key] for table in class_tables]
                for key in class_tables[0]}
    return {"tp_intra": compiled._tp_intra, "tp_inter": compiled._tp_inter,
            "pp": compiled._pp, "moe": compiled._moe,
            "bubble": compiled._bubble_prefactor,
            "grad": per_key(compiled.grad_tables),
            "zero": per_key(compiled.zero_tables)}


#: Per table: the key of a spec, the batch's index and value arrays.
TERMS = {
    "tp_intra": (keys.tp_intra_key, "_tpi_idx", "_tpi_vals",
                 "tp_intra_for"),
    "tp_inter": (keys.tp_inter_key, "_tpx_idx", "_tpx_vals",
                 "tp_inter_for"),
    "pp": (keys.pp_key, "_pp_idx", "_pp_vals", "pp_for"),
    "moe": (keys.moe_key, "_moe_idx", "_moe_vals", "moe_for"),
    "grad": (keys.gradient_key, "_grad_idx", "_grad",
             "gradient_pairs_for"),
    "zero": (keys.gradient_key, "_grad_idx", "_zero", "zero_gathers_for"),
}


@pytest.mark.parametrize("tune", [True, False])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_fill_matches_the_reference_functions(name, tune):
    template, global_batch, specs = _scenario(name, tune)
    expected, failed = _reference_tables(template, global_batch, specs,
                                         tune)
    compiled = CompiledSweep(template, global_batch)
    batch = BoundBatch(compiled, specs, tune_microbatches=tune)
    filled = _tables(compiled)
    if not compiled.explicit_zero:
        del expected["zero"], filled["zero"]
    for table, entries in expected.items():
        assert repr(filled[table]) == repr(entries), table
    assert bool(failed) == name.startswith("failing"), failed

    # Failed keys read NaN in the batch; every other key reads its entry.
    for table, (key_of, index, values, _) in TERMS.items():
        if table not in expected:
            continue
        for spec, row in zip(specs, getattr(batch, index).tolist()):
            key = key_of(spec)
            if table in ("grad", "zero"):
                got = [column[row] for column in getattr(batch, values)]
            else:
                got = getattr(batch, values)[row]
            if (table, key) in failed:
                assert np.isnan(got).all(), (table, key)
            else:
                assert np.array_equal(got, expected[table][key]), (table, key)


@pytest.mark.parametrize("tune", [True, False])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scalar_fill_matches_and_raises_like_the_reference(name, tune):
    template, global_batch, specs = _scenario(name, tune)
    expected, failed = _reference_tables(template, global_batch, specs,
                                         tune)
    compiled = CompiledSweep(template, global_batch)
    for spec in specs:
        for table, (key_of, _, _, accessor) in TERMS.items():
            if table == "zero" and not compiled.explicit_zero:
                continue
            if (table, key_of(spec)) in failed:
                with pytest.raises(MappingError) as error:
                    getattr(compiled, accessor)(spec)
                assert str(error.value) == failed[(table, key_of(spec))]
            else:
                getattr(compiled, accessor)(spec)
        for n_ub in _n_ubs(spec, global_batch, tune):
            compiled.bubble_prefactor_for(spec.pp, n_ub,
                                          spec.bubble_overlap_ratio)
    filled = _tables(compiled)
    for table in expected:
        if table != "zero" or compiled.explicit_zero:
            assert repr(filled[table]) == repr(expected[table]), table


def test_negative_zero_overlap_keeps_its_first_seen_entry():
    template, global_batch, specs = _scenario("ring")
    first = next(spec for spec in specs if spec.pp > 1).with_overlap(-0.0)
    compiled = CompiledSweep(template, global_batch)
    BoundBatch(compiled, [first, first.with_overlap(0.0)] + specs,
               tune_microbatches=True)
    n_ub = candidate_microbatch_counts(first, global_batch)[0]
    key, = [key for key in compiled._bubble_prefactor
            if key == (first.pp, n_ub, 0.0)]
    assert math.copysign(1.0, key[2]) == -1.0
    assert math.copysign(1.0, compiled._bubble_prefactor[key]) == -1.0
