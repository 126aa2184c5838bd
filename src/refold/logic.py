"""Terms, atoms, clauses, programs and a parser/printer for definite
logic programs.

Variables start with an uppercase letter or underscore; everything else
is a constant or functor. Bodies are stored in order but compared as
multisets up to variable renaming (variant equality).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class LogicError(Exception):
    pass


class ParseError(LogicError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ArityError(LogicError):
    pass


ROLES = ("primitive", "task", "support")


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple

    def __post_init__(self):
        if not self.args:
            raise LogicError(f"compound term {self.functor} needs arguments")

    def __repr__(self):
        return _render(self.functor, self.args)


Term = Var | Const | Compound


def _escape(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _layout(name: str, args: tuple, names: list) -> str:
    """The rendering of name(args), or of name alone without args, as a
    format string with "{}" for each variable occurrence; the variables'
    names are appended to `names` in order."""
    if not args:
        return _escape(name)
    parts = []
    for t in args:
        if isinstance(t, Var):
            names.append(t.name)
            parts.append("{}")
        elif isinstance(t, Compound):
            parts.append(_layout(t.functor, t.args, names))
        else:
            parts.append(_escape(t.name))
    return _escape(name) + "(" + ",".join(parts) + ")"


def _render(name: str, args: tuple) -> str:
    """The text of name(args), or of name alone without args. Atoms and
    compound terms render through _layout, as variant_key does, so the
    two cannot drift apart."""
    names: list = []
    return _layout(name, args, names).format(*names)


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    elif isinstance(t, Compound):
        for a in t.args:
            yield from term_vars(a)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[Var]:
        for a in self.args:
            yield from term_vars(a)

    def __repr__(self):
        return _render(self.pred, self.args)


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple = ()

    @property
    def size(self) -> int:
        return len(self.body) + 1

    def variables(self) -> Iterator[Var]:
        yield from self.head.variables()
        for lit in self.body:
            yield from lit.variables()

    def __repr__(self):
        return render_clause(self)


@dataclass
class PredicateRegistry:
    """Predicate symbol -> (arity, role). Roles: primitive, task, support."""

    entries: dict = field(default_factory=dict)

    def declare(self, pred: str, arity: int, role: str):
        if role not in ROLES:
            raise LogicError(f"unknown role {role!r} for {pred}/{arity}")
        if pred in self.entries:
            old_arity, old_role = self.entries[pred]
            if old_arity != arity:
                raise ArityError(
                    f"{pred} declared with arity {arity} but already has arity {old_arity}"
                )
            if old_role != role:
                raise LogicError(
                    f"{pred}/{arity} declared {role} but already declared {old_role}"
                )
            return
        self.entries[pred] = (arity, role)

    def role(self, pred: str) -> Optional[str]:
        e = self.entries.get(pred)
        return e[1] if e else None

    def arity(self, pred: str) -> Optional[int]:
        e = self.entries.get(pred)
        return e[0] if e else None

    def by_role(self, role: str) -> list:
        return [p for p, (_, r) in self.entries.items() if r == role]

    def copy(self) -> "PredicateRegistry":
        return PredicateRegistry(dict(self.entries))


@dataclass
class Program:
    clauses: tuple
    registry: PredicateRegistry

    @classmethod
    def empty(cls) -> "Program":
        return cls((), PredicateRegistry())

    @property
    def size(self) -> int:
        return sum(c.size for c in self.clauses)

    def predicates(self) -> list:
        """Distinct predicate symbols occurring in the clauses, in order."""
        seen = {}
        for c in self.clauses:
            seen.setdefault(c.head.pred, None)
            for lit in c.body:
                seen.setdefault(lit.pred, None)
        return list(seen)


# ---------------------------------------------------------------------------
# Parsing

_SYMS = {":-", "(", ")", ",", ".", "/", "#"}
# compound terms nest at most this deep in an atom's arguments, so that
# every recursive walk over a term stays far inside Python's stack
MAX_TERM_DEPTH = 100
# one lexeme: blanks, a comment, a newline (group 1), a token (group 2) or
# any other character (group 3); "\w" is a character for which
# str.isalnum() holds, or "_"
_LEXEME = re.compile(r"[ \t\r]+|%[^\n]*|(\n)|(:-|[().,/#]|\w+)|(.)")
# the same lexemes with one group, a token or any other character, so
# that findall gives "" for each run of blanks, comment or newline
_TOKEN = re.compile(r"[ \t\r\n]+|%[^\n]*|(:-|[().,/#]|\w+|.)")


def _tokenize(text: str) -> list:
    """(text, line, column) of each token, columns counting characters
    from 1, then an empty end-of-input token at the last token's
    position."""
    toks = []
    line, start = 1, 0
    for m in _LEXEME.finditer(text):
        if m.lastindex == 1:
            line, start = line + 1, m.end()
        elif m.lastindex:
            col = m.start() - start + 1
            if m.lastindex == 3:
                raise ParseError(f"unexpected character {m[3]!r}", line, col)
            toks.append((m[2], line, col))
    toks.append(("", *(toks[-1][1:] if toks else (1, 1))))
    return toks


def is_variable_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _Parser:
    """Reads a program's tokens as plain strings; a token's line and
    column are found from its index, and only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.toks = list(filter(None, _TOKEN.findall(text)))
        # one Var or Const for each distinct name
        self.terms = {}
        for tok in set(self.toks) - _SYMS:
            if _LEXEME.match(tok).lastindex == 3:
                _tokenize(text)  # raises at the first unexpected character
            self.terms[tok] = Var(tok) if is_variable_name(tok) else Const(tok)
        # "" marks the end of input; five of them let a directive's six
        # tokens be read as one slice wherever it starts
        self.toks += [""] * 5
        self.pos = 0

    def error(self, i: int, message: str) -> ParseError:
        """`message` at token i, or "unexpected end of input" if token i
        ends the input."""
        tok, line, col = _tokenize(self.text)[i]
        return ParseError(message if tok else "unexpected end of input", line, col)

    def parse_args(self, depth: int) -> tuple:
        """The terms between the "(" at self.pos and its ")", each inside
        `depth` compound terms."""
        toks, terms = self.toks, self.terms
        args = []
        i, sep = self.pos, ","
        while sep == ",":
            tok = toks[i + 1]
            term = terms.get(tok)
            if term is None:
                raise self.error(i + 1, f"expected a term, found {tok!r}")
            i += 2
            if toks[i] == "(":
                if type(term) is Var:
                    raise self.error(i - 1, f"variable {tok} cannot take arguments")
                if depth == MAX_TERM_DEPTH:
                    raise self.error(
                        i - 1, f"compound terms nest deeper than {MAX_TERM_DEPTH} levels"
                    )
                self.pos = i
                term = Compound(tok, self.parse_args(depth + 1))
                i = self.pos
            args.append(term)
            sep = toks[i]
        if sep != ")":
            raise self.error(i, f"expected ')', found {sep!r}")
        self.pos = i + 1
        return tuple(args)

    def parse_atom(self) -> Atom:
        i = self.pos
        pred = self.toks[i]
        term = self.terms.get(pred)
        if term is None:
            raise self.error(i, f"expected a predicate, found {pred!r}")
        if type(term) is Var:
            raise self.error(i, f"predicate name {pred} must not be a variable")
        self.pos = i + 1
        return Atom(pred, self.parse_args(0) if self.toks[i + 1] == "(" else ())

    def parse_clause(self) -> Clause:
        head = self.parse_atom()
        body = []
        sep, more = self.toks[self.pos], ":-"
        while sep == more:
            self.pos += 1
            body.append(self.parse_atom())
            sep, more = self.toks[self.pos], ","
        if sep != ".":
            raise self.error(self.pos, f"expected {more!r} or '.', found {sep!r}")
        self.pos += 1
        return Clause(head, tuple(body))

    def parse_directive(self) -> tuple:
        """(role, name, arity) of the declaration "#role name/arity." at
        self.pos."""
        i = self.pos
        role, name, slash, arity, stop = self.toks[i + 1:i + 6]
        if role not in ROLES:
            raise self.error(i + 1, f"unknown directive #{role}")
        if name not in self.terms:
            raise self.error(i + 2, f"expected a predicate, found {name!r}")
        if is_variable_name(name):
            raise self.error(i + 2, "predicate name must not be a variable")
        if slash != "/":
            raise self.error(i + 3, f"expected '/', found {slash!r}")
        # below 10**9: int() reads it, and no clause could use a larger one
        if not (arity.isdecimal() and len(arity.lstrip("0")) < 10):
            raise self.error(i + 4, f"expected an arity, found {arity!r}")
        if stop != ".":
            raise self.error(i + 5, f"expected '.', found {stop!r}")
        self.pos = i + 6
        return role, name, int(arity)


def parse_program(text: str) -> Program:
    """Parse knowledge-base source into a Program.

    Directives (`#primitive p/2.`, `#task t/1.`, `#support s/3.`) set
    predicate roles; predicates defined by clause heads but never
    declared default to role support.
    """
    parser = _Parser(text)
    toks = parser.toks
    registry = PredicateRegistry()
    clauses = []
    while toks[parser.pos]:
        if toks[parser.pos] != "#":
            clauses.append(parser.parse_clause())
            continue
        at = parser.pos
        role, name, arity = parser.parse_directive()
        if name in registry.entries:
            raise parser.error(at, f"duplicate role declaration for {name}")
        registry.declare(name, arity, role)

    # every use of a predicate has one arity, its declared one if any
    arities: dict = {}
    for c in clauses:
        for atom in (c.head, *c.body):
            arity = len(atom.args)
            old = arities.setdefault(atom.pred, arity)
            if old != arity:
                raise ArityError(
                    f"{atom.pred} used with arity {arity} but also with arity {old}"
                )
    for pred, arity in arities.items():
        declared = registry.arity(pred)
        if declared not in (None, arity):
            raise ArityError(
                f"{pred} declared with arity {declared} but used with arity {arity}"
            )
    defined = {c.head.pred for c in clauses}
    for pred, arity in arities.items():
        if registry.role(pred) is None:
            if pred not in defined:
                raise LogicError(
                    f"predicate {pred}/{arity} is used but neither declared nor defined"
                )
            registry.declare(pred, arity, "support")
    return Program(tuple(clauses), registry)


# ---------------------------------------------------------------------------
# Printing

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _canonical_name(k: int) -> str:
    """The k-th canonical variable name (from 0): A, ..., Z, A1, ..., Z1,
    A2, ..."""
    return _LETTERS[k] if k < 26 else f"{_LETTERS[k % 26]}{k // 26}"


def canonical_renaming(clause: Clause) -> dict:
    """Variable -> fresh Var named A, B, C, ... by first occurrence."""
    mapping = {}
    for v in clause.variables():
        if v not in mapping:
            mapping[v] = Var(_canonical_name(len(mapping)))
    return mapping


def rename_term(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        return mapping.get(t, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(rename_term(a, mapping) for a in t.args))
    return t


def rename_atom(a: Atom, mapping: dict) -> Atom:
    return Atom(a.pred, tuple(rename_term(t, mapping) for t in a.args))


def rename_clause(c: Clause, mapping: dict) -> Clause:
    return Clause(rename_atom(c.head, mapping), tuple(rename_atom(l, mapping) for l in c.body))


def canonicalize_clause(c: Clause) -> Clause:
    return rename_clause(c, canonical_renaming(c))


def render_clause(c: Clause) -> str:
    if not c.body:
        return f"{c.head!r}."
    return f"{c.head!r} :- {', '.join(map(repr, c.body))}."


def render_program(p: Program) -> str:
    """Deterministic textual form; parse(render(p)) is variant-equal to p."""
    lines = []
    for pred, (arity, role) in p.registry.entries.items():
        lines.append(f"#{role} {pred}/{arity}.")
    for c in p.clauses:
        lines.append(render_clause(canonicalize_clause(c)))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Variant equality

def _match_terms(t1: Term, t2: Term, fwd: dict, bwd: dict, trail: list) -> bool:
    """Extend the variable bijection fwd/bwd so that t1 maps onto t2; each
    newly bound variable of t1 is appended to `trail`."""
    if isinstance(t1, Var) and isinstance(t2, Var):
        if t1 in fwd:
            return fwd[t1] == t2
        if t2 in bwd:
            return False
        fwd[t1] = t2
        bwd[t2] = t1
        trail.append(t1)
        return True
    if isinstance(t1, Const) and isinstance(t2, Const):
        return t1.name == t2.name
    if isinstance(t1, Compound) and isinstance(t2, Compound):
        if t1.functor != t2.functor or len(t1.args) != len(t2.args):
            return False
        return all(_match_terms(a, b, fwd, bwd, trail) for a, b in zip(t1.args, t2.args))
    return False


def _match_atoms(a1: Atom, a2: Atom, fwd: dict, bwd: dict, trail: list) -> bool:
    if a1.pred != a2.pred or a1.arity != a2.arity:
        return False
    return all(_match_terms(t1, t2, fwd, bwd, trail) for t1, t2 in zip(a1.args, a2.args))


def _shape(t: Term) -> tuple:
    # every shape is a tuple headed by a string, so skeletons of one
    # predicate sort even when a variable and a compound share a position
    if isinstance(t, Var):
        return ("V",)
    if isinstance(t, Const):
        return ("c", t.name)
    return ("f", t.functor, tuple(map(_shape, t.args)))


def _atom_skeleton(a: Atom):
    return (a.pred, tuple(map(_shape, a.args)))


def variant_equal(c1: Clause, c2: Clause) -> bool:
    """True iff some variable bijection maps c1 onto c2, treating bodies
    as multisets of literals."""
    if len(c1.body) != len(c2.body):
        return False
    if _atom_skeleton(c1.head) != _atom_skeleton(c2.head):
        return False
    sk1 = sorted(map(_atom_skeleton, c1.body))
    sk2 = sorted(map(_atom_skeleton, c2.body))
    if sk1 != sk2:
        return False

    fwd: dict = {}
    bwd: dict = {}
    trail: list = []
    if not _match_atoms(c1.head, c2.head, fwd, bwd, trail):
        return False
    body1, body2 = c1.body, c2.body
    used = [False] * len(body2)
    # body2's literals by the name of each top-level variable they hold:
    # a literal of body1 with a bound top-level variable can only map onto
    # a holder of that variable's image
    holders: dict = {}
    for idx, lit in enumerate(body2):
        for t in lit.args:
            if isinstance(t, Var):
                held = holders.setdefault(t.name, [])
                if not held or held[-1] != idx:
                    held.append(idx)
    # depth-first search for the literal bijection without recursion, so
    # that long bodies fit the stack: body1[k] is placed next, trying its
    # options (the holders of its first bound top-level variable's image,
    # or all of body2) from `start` on; `placed` holds each placed
    # literal's (body2 index, position among its options, trail length
    # before it)
    placed: list = []
    k = start = 0
    while k < len(body1):
        opts = range(len(body2))
        for t in body1[k].args:
            if isinstance(t, Var) and t in fwd:
                opts = holders.get(fwd[t].name, ())
                break
        for pos in range(start, len(opts)):
            idx = opts[pos]
            if used[idx]:
                continue
            mark = len(trail)
            if _match_atoms(body1[k], body2[idx], fwd, bwd, trail):
                used[idx] = True
                placed.append((idx, pos, mark))
                k, start = k + 1, 0
                break
            _unbind(trail, mark, fwd, bwd)
        else:
            if not placed:
                return False
            idx, pos, mark = placed.pop()
            used[idx] = False
            # undoing body1[k-1]'s bindings restores the state its
            # options were read in, so they are read again unchanged
            _unbind(trail, mark, fwd, bwd)
            k, start = k - 1, pos + 1
    return True


def _unbind(trail: list, mark: int, fwd: dict, bwd: dict):
    """Undo the bindings made since the trail had `mark` entries."""
    while len(trail) > mark:
        del bwd[fwd.pop(trail.pop())]


VARIANT_KEY_CAP = 6


def variant_key(body: Iterable[Atom]) -> str:
    """Exact canonical key for variant equality of small bodies: the
    smallest, over all literal orderings, of the string that
    render_clause(canonicalize_clause(...)) gives for the clause
    `k :- body` in that order. Two bodies get the same key iff they are
    variant-equal (as multisets).

    Each literal is laid out once (_layout's format string and variable
    names), and the smallest string is found by an ordering search, not
    by rendering every permutation. A partial ordering renders to a
    fixed prefix of each of its completions: its literals with the
    canonical names of their variables in first occurrence order, each
    followed by its separator (", ", or "." after the last literal).
    Orderings grow one literal at a time, and after each step only those
    whose rendering starts with the smallest one are kept: any other
    differs from that smallest one at a position inside both, where it
    is larger, so all its completions are larger than the smallest
    one's. Exponential in the worst case (repeated literals keep every
    ordering); meant for candidate-sized bodies.
    """
    return _ordered_key([_literal_layout(a) for a in body])


def _literal_layout(a: Atom) -> tuple:
    names: list = []
    return _layout(a.pred, a.args, names), names


def _ordered_key(layouts: list) -> str:
    """variant_key of the literals whose _literal_layout forms are
    `layouts`."""
    n = len(layouts)
    if n > VARIANT_KEY_CAP:
        raise LogicError(f"variant_key limited to {VARIANT_KEY_CAP} literals, got {n}")
    if not n:
        return "k."
    # (rendering so far, bitmask of the literals placed, variable name ->
    # canonical name, the k-th new name being _canonical_name(k));
    # a map is copied only when a literal adds to it
    partials = [("", 0, {})]
    for step in range(n):
        sep = ", " if step < n - 1 else "."
        grown = []
        for text, used, rename in partials:
            for i, (fmt, names) in enumerate(layouts):
                if used >> i & 1:
                    continue
                r = rename
                args = []
                for v in names:
                    c = r.get(v)
                    if c is None:
                        if r is rename:
                            r = dict(rename)
                        c = r[v] = _canonical_name(len(r))
                    args.append(c)
                grown.append((text + fmt.format(*args) + sep, used | 1 << i, r))
        best = min(g[0] for g in grown)
        partials = [g for g in grown if g[0].startswith(best)]
    return "k :- " + best


# ---------------------------------------------------------------------------
# Connectivity

def _adjacency(lits) -> list:
    """Per literal, the bitmask of the literals it shares a variable with
    (itself included, when it has a variable)."""
    owners: dict = {}
    for i, lit in enumerate(lits):
        for v in lit.variables():
            owners[v] = owners.get(v, 0) | 1 << i
    adj = []
    for lit in lits:
        mask = 0
        for v in lit.variables():
            mask |= owners[v]
        adj.append(mask)
    return adj


def connected_index_subsets(body: tuple, min_size: int, max_size: int) -> list:
    """Index tuples of the connected subsets of the body literals with
    min_size..max_size literals, by size and then lexicographically.
    Connectivity is over body literals only. Subsets grow from single
    literals, one adjacent literal at a time, so the work follows the
    number of connected subsets, not of all subsets."""
    adj = _adjacency(body)
    top = min(len(body), max_size)
    # each connected subset of the current size, as a bitmask -> the
    # bitmask of the literals sharing a variable with one of its own
    level = {1 << i: mask for i, mask in enumerate(adj)}
    out = []
    for size in range(1, top + 1):
        if size >= min_size:
            out.extend(sorted(map(_indices, level)))
        if size == top:
            break
        grown: dict = {}
        for sub, near in level.items():
            rest = near & ~sub
            while rest:
                bit = rest & -rest
                rest ^= bit
                if sub | bit not in grown:
                    grown[sub | bit] = near | adj[bit.bit_length() - 1]
        level = grown
    return out


def _indices(mask: int) -> tuple:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def keyed_subsets(body: tuple, lo: int, hi: int) -> list:
    """(index tuple, variant key) of each connected sub-body of `body`
    with lo..hi literals, in connected_index_subsets order. Each literal
    is laid out once for all the sub-bodies holding it."""
    layouts = [_literal_layout(a) for a in body]
    return [
        (idxs, _ordered_key([layouts[k] for k in idxs]))
        for idxs in connected_index_subsets(body, lo, hi)
    ]


def first_occurrence_vars(lits: Iterable[Atom]) -> list:
    seen = {}
    for lit in lits:
        for v in lit.variables():
            seen.setdefault(v, None)
    return list(seen)
