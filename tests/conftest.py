import random

import pytest

from refold.logic import parse_program

PILLAR_SOURCE = """
#primitive place/4.
#primitive right/2.
#primitive left/2.
#task pillar/4.

pillar(X,Y,E,E5) :-
    place(hor,X,E,E1), right(X,Z), place(b,Z,E1,E2), place(b,Z,E2,E3),
    place(b,Z,E3,E4), left(Z,Y), place(hor,X,E4,E5).
"""

FOLDED_SOURCE = """
#primitive place/4.
#primitive right/2.
#primitive left/2.
#task pillar/4.

ver(X,E,E2) :- place(b,X,E,E0), place(b,X,E0,E1), place(b,X,E1,E2).
pillar(X,Y,E,E3) :-
    place(hor,X,E,E1), right(X,Z), ver(Z,E1,E2), left(Z,Y), place(hor,X,E2,E3).
"""


@pytest.fixture
def pillar_program():
    """The unfolded one-clause construction program."""
    return parse_program(PILLAR_SOURCE)


@pytest.fixture
def folded_program():
    """The same program written with the vertical-stack support clause."""
    return parse_program(FOLDED_SOURCE)


def random_chain_program(rng: random.Random, n_prims: int, n_clauses: int, body_len):
    """Task clauses t<c>(V0,Vn) :- p<i>(V0,V1), ..., p<j>(Vn-1,Vn) over
    binary primitives drawn by `rng`; `body_len()` gives each clause's
    length n."""
    lines = [f"#primitive p{i}/2." for i in range(n_prims)]
    lines += [f"#task t{c}/2." for c in range(n_clauses)]
    for c in range(n_clauses):
        blen = body_len()
        lits = [f"p{rng.randrange(n_prims)}(V{k},V{k + 1})" for k in range(blen)]
        lines.append(f"t{c}(V0,V{blen}) :- {', '.join(lits)}.")
    return parse_program("\n".join(lines))


def random_program(rng: random.Random):
    """Criterion 1's generator: 2-20 task clauses with 1-8 literal chain
    bodies over 3-8 binary primitives."""
    return random_chain_program(
        rng, rng.randint(3, 8), rng.randint(2, 20), lambda: rng.randint(1, 8)
    )


def dense_program():
    """Criterion 5's instance: 30 clauses of 6 literals over 4 primitives."""
    return random_chain_program(random.Random(5), 4, 30, lambda: 6)
