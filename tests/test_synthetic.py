import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import named_splits, reload_saved
from oracles import DictOfSetsGenerator, grid_composition_spec

from star_kge.data import CLASS_N_TO_ONE, classify_relations
from star_kge.synthetic import (
    RULE_KINDS,
    CompositionRule,
    RelationRule,
    SynthSpec,
    SynthSpecError,
    generate_full,
)


class TestBaseRules:
    def test_symmetric_rule_is_closed(self):
        spec = SynthSpec(
            num_entities=8,
            relations=[RelationRule("sym", "symmetric", num_pairs=3)],
            seed=4,
        )
        store = generate_full(spec).store
        pairs = {(h, t) for h, _, t in store.train.tolist()}
        assert pairs == {(t, h) for h, t in pairs}
        assert len(pairs) == 6

    def test_fan_in_rule_classifies_n_to_one(self):
        spec = SynthSpec(
            num_entities=50,
            relations=[RelationRule("sink", "fan_in", num_tails=4, heads_per_tail=10)],
            seed=0,
        )
        store = generate_full(spec).store
        (cls,) = classify_relations(store)
        assert cls.label == CLASS_N_TO_ONE
        assert cls.hptr == 10.0

    def test_inverse_rule_reverses_every_edge(self):
        spec = SynthSpec(
            num_entities=10,
            relations=[
                RelationRule("fwd", "permutation"),
                RelationRule("bwd", "inverse_of", of="fwd"),
            ],
            seed=1,
        )
        store = generate_full(spec).store
        fwd = {(h, t) for h, r, t in store.train.tolist() if r == 0}
        bwd = {(h, t) for h, r, t in store.train.tolist() if r == 1}
        assert bwd == {(t, h) for h, t in fwd}

    def test_permutation_rule_is_functional(self):
        spec = SynthSpec(num_entities=12, relations=[RelationRule("p", "permutation")], seed=2)
        store = generate_full(spec).store
        heads = store.train[:, 0]
        tails = store.train[:, 2]
        assert len(np.unique(heads)) == 12
        assert len(np.unique(tails)) == 12


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SynthSpecError, match="duplicate"):
            SynthSpec(
                num_entities=4,
                relations=[RelationRule("a", "permutation"), RelationRule("a", "permutation")],
            )

    def test_inverse_of_unknown_relation_rejected(self):
        spec = SynthSpec(
            num_entities=4, relations=[RelationRule("a", "inverse_of", of="missing")]
        )
        with pytest.raises(SynthSpecError, match="unknown"):
            generate_full(spec)

    def test_grid_rules_need_square_entity_count(self):
        spec = SynthSpec(num_entities=10, relations=[RelationRule("turn", "grid_rotation")])
        with pytest.raises(SynthSpecError, match="square"):
            generate_full(spec)

    def test_false_commuting_declaration_rejected(self):
        spec = SynthSpec(
            num_entities=16,
            relations=[
                RelationRule("turn", "grid_rotation", quarter_turns=1),
                RelationRule("shift", "grid_translation", offset=(1, 0)),
                RelationRule("c", "composed"),
            ],
            compositions=[CompositionRule("turn", "shift", "c", commutes=True)],
        )
        with pytest.raises(SynthSpecError, match="disagree"):
            generate_full(spec)

    def test_inverse_of_composed_relation_rejected(self):
        spec = SynthSpec(
            num_entities=16,
            relations=[
                RelationRule("turn", "grid_rotation"),
                RelationRule("c", "composed"),
                RelationRule("back", "inverse_of", of="c"),
            ],
            compositions=[CompositionRule("turn", "turn", "c", commutes=True)],
        )
        with pytest.raises(SynthSpecError, match="'back' is inverse_of composed relation 'c'"):
            generate_full(spec)

    @pytest.mark.parametrize("count", ["num_tails", "heads_per_tail", "num_pairs"])
    def test_negative_counts_rejected(self, count):
        with pytest.raises(SynthSpecError, match=f"{count} must be >= 0, got -1"):
            RelationRule("x", "fan_in", **{count: -1})

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"])
    def test_names_that_break_a_tsv_line_rejected(self, name):
        with pytest.raises(SynthSpecError, match="tab or line break"):
            RelationRule(name, "symmetric")

    def test_composition_over_unknown_relation_rejected(self):
        spec = SynthSpec(
            num_entities=16,
            relations=[RelationRule("turn", "grid_rotation"), RelationRule("c", "composed")],
            compositions=[CompositionRule("turn", "ghost", "c", commutes=False)],
        )
        with pytest.raises(SynthSpecError, match="unknown"):
            generate_full(spec)


class TestGridComposition:
    def test_store_round_trips_through_kg_data(self, tmp_path):
        result = generate_full(grid_composition_spec(side=6, seed=3))
        # names, not ids: the vocabulary may hold entities that no triple names
        reloaded = reload_saved(result.store, tmp_path / "kg")
        assert named_splits(reloaded) == named_splits(result.store)

    def test_composed_triples_follow_the_maps(self):
        side = 6
        result = generate_full(grid_composition_spec(side=side, seed=0, holdout_fraction=0.0))
        store = result.store
        rel = {name: i for i, name in enumerate(store.vocab.relation_names)}
        turn = {(h, t) for h, r, t in store.train.tolist() if r == rel["turn"]}
        shift = {(h, t) for h, r, t in store.train.tolist() if r == rel["shift"]}
        composed = {(h, t) for h, r, t in store.train.tolist() if r == rel["turn_then_shift"]}
        via_chain = {
            (a, c) for a, b in turn for b2, c in shift if b2 == b
        }
        assert composed == via_chain

    def test_deterministic_under_seed(self):
        a = generate_full(grid_composition_spec(side=6, seed=9))
        b = generate_full(grid_composition_spec(side=6, seed=9))
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(a.store.split(split), b.store.split(split))
        np.testing.assert_array_equal(a.test_discriminating, b.test_discriminating)

    def test_discriminating_queries_have_disjoint_answers_across_orders(self):
        result = generate_full(grid_composition_spec(side=8, seed=5, holdout_fraction=0.3))
        store = result.store
        rel_names = store.vocab.relation_names
        assert result.test_discriminating.any()
        gen = result.spec
        # rebuild the two composed maps directly from the base train edges
        by_rel = {}
        for h, r, t in store.train.tolist():
            by_rel.setdefault(rel_names[r], set()).add((h, t))
        turn = by_rel["turn"]
        shift = by_rel["shift"]
        turn_then_shift = {(a, c) for a, b in turn for b2, c in shift if b2 == b}
        shift_then_turn = {(a, c) for a, b in shift for b2, c in turn if b2 == b}
        checked = 0
        for flag, (h, r, t) in zip(result.test_discriminating, store.test.tolist()):
            if not flag or rel_names[r] != "turn_then_shift":
                continue
            answer_right_order = {c for a, c in turn_then_shift if a == h}
            answer_wrong_order = {c for a, c in shift_then_turn if a == h}
            if answer_right_order and answer_wrong_order:
                assert answer_right_order.isdisjoint(answer_wrong_order)
                checked += 1
        assert checked > 0
        assert gen.holdout_fraction == 0.3

    def test_holdout_sizes(self):
        result = generate_full(grid_composition_spec(side=8, seed=1, holdout_fraction=0.25))
        store = result.store
        composed_total = sum(
            1
            for _, r, _ in np.concatenate([store.train, store.valid, store.test]).tolist()
            if store.vocab.relation_names[r] in ("turn_then_shift", "shift_then_turn")
        )
        held = len(store.valid) + len(store.test)
        assert held == round(0.25 * composed_total)
        assert abs(len(store.valid) - len(store.test)) <= 1


@st.composite
def synth_specs(draw):
    """Random spec fields: every rule kind, square and non-square entity
    counts, compositions that may or may not commute, and names that may be
    unknown, later or the rule itself. Counts are occasionally negative."""
    # half the specs use only maps that cover (almost) every entity, on a
    # square grid, so that most of their compositions come out non-empty
    dense = draw(st.booleans())
    square = st.integers(2, 7).map(lambda side: side * side)
    num_entities = draw(square if dense else square | st.integers(2, 40))
    pool = ("grid_rotation", "grid_translation", "permutation", "inverse_of") if dense else RULE_KINDS
    kinds = draw(st.lists(st.sampled_from(pool + ("composed",)), min_size=1, max_size=6))
    names = [f"r{k}" for k in range(len(kinds))]
    any_name = st.sampled_from(names + ["ghost"])
    count = st.integers(-1, 6)
    fields_of = {
        "grid_rotation": {"quarter_turns": st.integers(-5, 5)},
        "grid_translation": {"offset": st.tuples(st.integers(-2, 2), st.integers(-2, 2))},
        "fan_in": {"num_tails": count, "heads_per_tail": count},
        "symmetric": {"num_pairs": count},
    }
    relations = [
        dict(name=name, kind=kind, **{f: draw(s) for f, s in fields_of.get(kind, {}).items()})
        for name, kind in zip(names, kinds)
    ]
    for k, rule in enumerate(relations):
        if rule["kind"] == "inverse_of":  # mostly an earlier relation
            rule["of"] = draw(st.sampled_from(names[:k]) | any_name if k else any_name)
    # one composition per composed relation, in random order, plus strays
    known = st.sampled_from([n for n, k in zip(names, kinds) if k != "composed"] or names)
    compositions = [
        (draw(known), draw(known), name, draw(st.booleans()))
        for name, kind in zip(names, kinds)
        if kind == "composed"
    ]
    compositions = draw(st.permutations(compositions))
    if not dense:
        compositions += draw(st.lists(st.tuples(any_name, any_name, any_name, st.booleans()), max_size=1))
    return dict(
        num_entities=num_entities,
        relations=relations,
        compositions=compositions,
        seed=draw(st.integers(0, 2**16)),
        holdout_fraction=draw(st.integers(0, 19).map(lambda k: k / 20) | st.floats(0.0, 1.0, exclude_max=True)),
        paired_holdout_fraction=draw(st.integers(0, 10).map(lambda k: k / 10) | st.floats(0.0, 1.0)),
    )


def assert_matches_reference(spec: SynthSpec):
    """The array generator reproduces the dict-of-sets reference: the same
    splits in the same row order, manifest and query flags, or the same
    SynthSpecError text."""
    try:
        ref = DictOfSetsGenerator(spec)
        expected = ref.build()
    except SynthSpecError as exc:
        expected = str(exc)
    try:
        got = generate_full(spec)
    except SynthSpecError as exc:
        got = str(exc)

    if isinstance(got, str) and "is inverse_of composed relation" in got:
        # rejected up front now; the reference failed later, in its audit
        # or on the empty composed relation
        kinds = {r.name: r.kind for r in spec.relations}
        earlier = [r.name for r in spec.relations]
        assert any(
            r.kind == "inverse_of" and kinds.get(r.of) == "composed" and r.of in earlier[:k]
            for k, r in enumerate(spec.relations)
        )
        assert isinstance(expected, str)
        return
    if re.fullmatch(r"composed relation '\w+' received no triples", str(expected)):
        # the reference names an empty composed relation in set order, the
        # generator the first in spec order
        first = next(r.name for r in spec.relations if r.kind == "composed" and not ref.maps[r.name])
        expected = f"composed relation {first!r} received no triples"
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    for split in ("train", "valid", "test"):
        np.testing.assert_array_equal(got.store.split(split), expected.store.split(split))
    assert got.store.vocab.entity_names == expected.store.vocab.entity_names
    assert got.store.vocab.relation_names == expected.store.vocab.relation_names
    assert got.manifest == expected.manifest
    np.testing.assert_array_equal(got.test_discriminating, expected.test_discriminating)
    np.testing.assert_array_equal(got.test_mirror_free, expected.test_mirror_free)


class TestReferenceParity:
    @settings(max_examples=300, deadline=None)
    @given(synth_specs())
    def test_random_specs_match_the_dict_of_sets_generator(self, fields):
        relations, compositions = fields.pop("relations"), fields.pop("compositions")
        try:
            spec = SynthSpec(
                relations=[RelationRule(**r) for r in relations],
                compositions=[CompositionRule(*c) for c in compositions],
                **fields,
            )
        except SynthSpecError as exc:
            # the reference crashed in rng.choice on these, or built nothing
            assert "must be >= 0, got -1" in str(exc)
            return
        assert_matches_reference(spec)

    @pytest.mark.parametrize("paired", [0.0, 0.2, 1.0])
    def test_half_turn_lattice_matches_the_dict_of_sets_generator(self, paired):
        assert_matches_reference(
            grid_composition_spec(
                side=9, quarter_turns=2, seed=4, holdout_fraction=0.5, paired_holdout_fraction=paired
            )
        )

    def test_chains_through_several_middles_match_the_dict_of_sets_generator(self):
        # a tail reaches itself through each of its heads
        assert_matches_reference(
            SynthSpec(
                num_entities=30,
                relations=[
                    RelationRule("sink", "fan_in", num_tails=3, heads_per_tail=4),
                    RelationRule("source", "inverse_of", of="sink"),
                    RelationRule("back", "composed"),
                ],
                compositions=[CompositionRule("source", "sink", "back", commutes=False)],
                seed=5,
                holdout_fraction=0.5,
            )
        )
