import random

import pytest

from refold import copmodel
from refold.bench import (
    SynthesisLimits,
    accumulate_background,
    gen_lego_tasks,
    lego_primitives,
)
from refold.candidates import build_search_space
from refold.copmodel import (
    Assignment,
    CopModel,
    LinearConstraint,
    ModelError,
    check_assignment,
    decode,
    encode,
    objective_value,
    render_model,
)
from refold.logic import connected_index_subsets, parse_program, variant_key
from refold.solver import assignment_from_selection
from refold.transform import syntactic_equiv, unfold

from tests.conftest import random_chain_program
from tests.oracles import brute_force_solve


def chain_program(copies: int, length: int = 3):
    lines = ["#primitive p/2.", "#primitive q/2.", "#primitive r/2."]
    preds = ["p", "q", "r"][:length]
    body = ", ".join(
        f"{preds[k % len(preds)]}(X{k},X{k + 1})" for k in range(length)
    )
    for k in range(copies):
        lines.append(f"#task t{k}/2.")
    for k in range(copies):
        lines.append(f"t{k}(X0,X{length}) :- {body}.")
    return parse_program("\n".join(lines))


def pick_vars(model) -> dict:
    """(clause, level, option) -> PICK var, read from the var tags."""
    return {tag[1:]: v for v, tag in enumerate(model.vars) if tag[0] == "PICK"}


def red_vars(model) -> list:
    return [v for v, tag in enumerate(model.vars) if tag[0] == "RED"]


def encoded(prog, **kw):
    u = unfold(prog)
    space = build_search_space(u, i=2, j=3)
    return space, u, encode(space, u, **kw)


def red_encoded(**kw):
    """A model with RED groups: six random chains, unpruned, two levels."""
    u = unfold(random_chain_program(random.Random(0), 3, 6, lambda: 5))
    space = build_search_space(u, i=2, j=3, prune=False, max_levels=2)
    return space, u, encode(space, u, **kw)


class TestEncode:
    def test_variable_families_present(self):
        space, u, model = encoded(chain_program(4))
        # each sub-body class of the shared chain is in all 4 clauses, a
        # constant penalty, so the model has no RED var
        assert {tag[0] for tag in model.vars} == {"SC", "PICK"}
        # every clause keeps a PICK var for its raw option (TestRanking
        # checks that each option without one is never taken)
        for cl in space.foldings:
            assert (cl, 0, 0) in pick_vars(model)
        # only the families the objective charges: SC, PICK and RED
        _, _, model = red_encoded()
        assert {tag[0] for tag in model.vars} == {"SC", "PICK", "RED"}

    def test_constraints_reference_only_objective_families(self):
        _, _, model = encoded(chain_program(4))
        for c in model.constraints:
            assert all(model.vars[v][0] in ("SC", "PICK", "RED") for _, v in c.terms)

    def test_raw_option_has_no_requirements(self):
        space, u, model = encoded(chain_program(4))
        for (cl, lvl, n), pvar in pick_vars(model).items():
            opt = space.foldings[cl][lvl][n]
            req = model.pick_required[pvar]
            assert req == tuple(model.sc_vars[cid] for cid in sorted(opt.required))
            if lvl == 0:
                assert req == ()
            # each required SC var is tied to the PICK by pick - sc >= 0
            for sv in req:
                tie = LinearConstraint(((1, sv), (-1, pvar)), 0, "pick-needs-sc")
                assert tie in model.constraints

    def test_constraints_are_normalized(self):
        _, _, model = encoded(chain_program(4))
        for c in model.constraints:
            assert isinstance(c.rhs, int)
            assert all(isinstance(coef, int) and coef != 0 for coef, _ in c.terms)

    def test_objective_weights_are_sizes(self):
        space, _, model = encoded(chain_program(4))
        for cid, v in model.sc_vars.items():
            assert model.objective[v] == space.candidates[cid].size
        for (cl, lvl, n), v in pick_vars(model).items():
            assert model.objective[v] == space.foldings[cl][lvl][n].size

    def test_exactly_one_pick_enforced(self):
        space, u, model = encoded(chain_program(4))
        # all-false picks for clause 0 violate the model
        a = assignment_from_selection(model, set())
        assert a is not None
        values = list(a.values)
        for (cl, lvl, n), v in pick_vars(model).items():
            if cl == 0:
                values[v] = False
        assert not check_assignment(model, values)

    def test_pick_requires_selected_candidates(self):
        space, u, model = encoded(chain_program(4))
        a = assignment_from_selection(model, set())
        values = list(a.values)
        # force a level-1 pick without selecting its candidates
        target = next(k for k in pick_vars(model) if k[1] == 1)
        for (cl, lvl, n), v in pick_vars(model).items():
            if cl == target[0]:
                values[v] = (cl, lvl, n) == target
        assert not check_assignment(model, values)

    def test_predicate_cap(self):
        prog = chain_program(4)
        space, u, model = encoded(prog, original_predicates=len(prog.registry.entries))
        assert model.sc_cap is not None
        # selecting more candidates than the cap is rejected
        if len(model.sc_vars) > model.sc_cap:
            over = set(list(model.sc_vars.values())[: model.sc_cap + 1])
            assert assignment_from_selection(model, over) is None

    def test_selection_missing_a_dependency_rejected(self):
        # a level-2 candidate selected without the level-1 ones it calls
        _, _, model = red_encoded()
        sv, deps = next((sv, deps) for sv, deps in model.sc_deps.items() if deps)
        assert assignment_from_selection(model, {sv, *deps}) is not None
        assert assignment_from_selection(model, {sv}) is None

    def test_size_limits_enforced(self, monkeypatch):
        monkeypatch.setattr(copmodel, "MAX_VARIABLES", 3)
        with pytest.raises(ModelError):
            encoded(chain_program(4))


def lego_bk_program():
    """Criterion 6's lego background knowledge."""
    limits = SynthesisLimits(max_depth=14, max_nodes=50_000, wall_time=10.0)
    tasks = gen_lego_tasks(4, 50, seed=1, max_height=2)
    return accumulate_background(tasks, lego_primitives(), limits)[0]


RANKED_MODELS = {
    "chain": lambda: (chain_program(4), {}),
    "random-chain": lambda: (
        random_chain_program(random.Random(3), 3, 10, lambda: 6),
        {"max_levels": 2},
    ),
    # criterion 6's config
    "lego-bk": lambda: (lego_bk_program(), {"max_levels": 2, "folding_cap": 20}),
}


class TestRanking:
    """encode ranks each clause's options as the completion takes them and
    gives a PICK var only to the options it can take."""

    @pytest.mark.parametrize("name", sorted(RANKED_MODELS))
    def test_lists_are_ranked_and_drop_only_dominated_options(self, name):
        prog, kw = RANKED_MODELS[name]()
        u = unfold(prog)
        space = build_search_space(u, 2, 3, **kw)
        model = encode(space, u)
        dropped = 0
        for cl, per_level in space.foldings.items():
            picks = model.clause_picks[cl]
            weights = [model.objective[p] for p in picks]
            assert weights == sorted(weights), cl
            assert model.vars[picks[-1]] == ("PICK", cl, 0, 0), cl
            assert model.pick_required[picks[-1]] == ()
            required = [set(model.pick_required[p]) for p in picks]
            for k, req in enumerate(required):
                assert not any(earlier <= req for earlier in required[:k]), cl
            rank = {model.vars[p][2:]: (w, model.vars[p][2:]) for p, w in zip(picks, weights)}
            for lvl, opts in per_level.items():
                for n, opt in enumerate(opts):
                    if (lvl, n) in rank:
                        continue
                    dropped += 1
                    needs = {model.sc_vars[cid] for cid in opt.required}
                    assert any(
                        rank[model.vars[p][2:]] < (opt.size, (lvl, n)) and req <= needs
                        for p, req in zip(picks, required)
                    ), (cl, lvl, n)
        if name != "chain":
            assert dropped > 0


class TestRedundancyGroups:
    """encode gives a RED var to each sub-body class a selection can
    change, and to no other."""

    @pytest.mark.parametrize("name", sorted(RANKED_MODELS))
    def test_groups_are_the_classes_a_selection_can_change(self, name):
        prog, kw = RANKED_MODELS[name]()
        u = unfold(prog)
        space = build_search_space(u, 2, 3, **kw)
        model = encode(space, u)
        classes: dict = {}  # variant key -> (literal count, raw clauses, SC vars)

        def occurrences(body):
            for idxs in connected_index_subsets(body, 2, 3):
                key = variant_key(body[k] for k in idxs)
                yield classes.setdefault(key, (len(idxs), set(), set()))

        for cl in space.foldings:
            for _, raw, _ in occurrences(space.foldings[cl][0][0].literals):
                raw.add(cl)
        for cand in space.candidates:
            for _, _, members in occurrences(cand.clause.body):
                members.add(model.sc_vars[cand.id])
        shared = [key for key, (_, raw, _) in classes.items() if len(raw) >= 2]
        assert shared  # constant penalties, which get no RED var
        changeable = sorted(
            (-size, key, len(raw), tuple(sorted(members)))
            for key, (size, raw, members) in classes.items()
            if len(raw) <= 1 and len(raw) + len(members) >= 2
        )
        assert len(changeable) <= copmodel.DEFAULT_RED_GROUP_CAP

        def groups(m):
            return sorted((m.red_base[r], tuple(sorted(ms))) for r, ms in m.red_members.items())

        assert groups(model) == sorted(g[2:] for g in changeable)
        # under a cap, the largest classes keep their vars
        cap = len(changeable) // 2
        assert groups(encode(space, u, red_group_cap=cap)) == sorted(
            g[2:] for g in changeable[:cap]
        )


def single_chain_program():
    """One clause, so every sub-body class occurs in exactly one input
    clause and redundancy can only come from selected candidates."""
    return parse_program(
        "#primitive p/2.\n#primitive q/2.\n#primitive r/2.\n#task t/2.\n"
        "t(A,D) :- p(A,B), q(B,C), r(C,D)."
    )


class TestRedundancy:
    def test_members_are_candidate_vars_with_clause_base(self):
        # every sub-body class of the shared chain occurs in all 4 clauses
        _, _, model = encoded(chain_program(4))
        assert not red_vars(model) and not model.red_members
        _, _, model = red_encoded()
        assert red_vars(model)
        sc = set(model.sc_vars.values())
        for rvar, members in model.red_members.items():
            # a group needs two possible occurrences: input clauses or
            # candidates, and a selection must be able to change it
            assert model.red_base[rvar] in (0, 1)
            assert model.red_base[rvar] + len(members) >= 2
            assert all(m in sc for m in members)

    def test_red_var_forced_by_clause_plus_candidate(self):
        # one input occurrence + one selected candidate containing the
        # sub-body = two occurrences, so the penalty must fire
        u = unfold(single_chain_program())
        space = build_search_space(u, i=2, j=3, prune=False)
        model = encode(space, u, None)
        rvar, members = next(
            (r, m)
            for r, m in model.red_members.items()
            if model.red_base[r] == 1 and len(m) == 2
        )
        values = {v: False for v in range(model.num_vars)}
        values[members[0]] = True
        relevant = [
            c for c in model.constraints
            if any(v == rvar for _, v in c.terms)
        ]
        assert relevant
        assert not all(c.satisfied(values) for c in relevant)
        values[rvar] = True
        assert all(c.satisfied(values) for c in relevant)

    def test_red_var_not_allowed_without_second_occurrence(self):
        u = unfold(single_chain_program())
        space = build_search_space(u, i=2, j=3, prune=False)
        model = encode(space, u, None)
        rvar, members = next(
            (r, m)
            for r, m in model.red_members.items()
            if model.red_base[r] == 1
        )
        values = {v: False for v in range(model.num_vars)}
        values[rvar] = True
        relevant = [
            c for c in model.constraints
            if any(v == rvar for _, v in c.terms)
        ]
        assert not all(c.satisfied(values) for c in relevant)

    def test_penalty_monotone_in_selection(self):
        # adding a candidate never lowers the penalty term, the property
        # that keeps profitability pruning exact
        space, u, model = red_encoded()
        assert len(red_vars(model)) >= 2

        def penalties(sel):
            a = assignment_from_selection(model, sel)
            return sum(1 for v in red_vars(model) if a.values[v])

        base = penalties(set())
        for cid, svar in model.sc_vars.items():
            sel = {svar}
            for dep in model.sc_deps.get(svar, ()):
                sel.add(dep)
            assert penalties(sel) >= base

    def test_group_cap(self):
        _, _, model = red_encoded()
        groups = list(model.red_members.items())
        assert len(groups) >= 2
        for cap in (0, 1, len(groups) - 1):
            _, _, capped = red_encoded(red_group_cap=cap)
            assert len(red_vars(capped)) == cap
            # the cap keeps the first groups, with their members and bases
            assert [
                (members, capped.red_base[r]) for r, members in capped.red_members.items()
            ] == [(members, model.red_base[r]) for r, members in groups[:cap]]


class TestObjectiveInvariant:
    @pytest.mark.parametrize("copies", [3, 4, 5])
    def test_objective_equals_program_size_plus_penalties(self, copies):
        space, u, model = encoded(chain_program(copies))
        a = brute_force_solve(model)
        prog = decode(model, a, space, u)
        program_size = sum(len(c.body) + 1 for c in prog.clauses)
        penalties = sum(
            model.objective.get(v, 0) for v in red_vars(model) if a.values[v]
        )
        assert a.objective_value == program_size + penalties
        assert objective_value(model, a.values) == a.objective_value

    def test_decoded_program_equivalent(self):
        prog = chain_program(4)
        space, u, model = encoded(prog)
        a = brute_force_solve(model)
        out = decode(model, a, space, u)
        assert syntactic_equiv(prog, out)
        assert sum(len(c.body) + 1 for c in out.clauses) < sum(
            len(c.body) + 1 for c in prog.clauses
        )


class TestDecode:
    def test_infeasible_rejected(self):
        _, _, model = encoded(chain_program(3))
        with pytest.raises(ModelError):
            decode(model, Assignment([], 0, "infeasible"), None, None)

    def test_violating_assignment_rejected(self):
        space, u, model = encoded(chain_program(3))
        values = [False] * model.num_vars
        with pytest.raises(ModelError):
            decode(model, Assignment(values, 0, "optimal"), space, u)


class TestRender:
    def test_opb_shape(self):
        _, _, model = encoded(chain_program(3))
        text = render_model(model)
        lines = text.strip().splitlines()
        assert lines[0].startswith("min:") and lines[0].endswith(";")
        assert len(lines) == 1 + len(model.constraints)
        for line in lines[1:]:
            assert ">=" in line and line.endswith(";")

    def test_round_trip_satisfiability_semantics(self):
        # a tiny hand-built model renders with 1-based variable indices
        model = CopModel(
            vars=[("SC", 0), ("SC", 1)],
            constraints=[LinearConstraint(((1, 0), (1, 1)), 1, "either")],
            objective={0: 2, 1: 3},
        )
        text = render_model(model)
        assert "+1 x1 +1 x2 >= 1 ;" in text
        assert "min: +2 x1 +3 x2 ;" in text
