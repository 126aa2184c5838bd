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
# Variant forms: one canonical form per clause, equal for two clauses iff
# they are variants (the head in place, bodies as multisets), found by
# individualisation and refinement (McKay and Piperno, "Practical graph
# isomorphism, II", 2014)

def _literal_layout(a: Atom) -> tuple:
    names: list = []
    return _layout(a.pred, a.args, names), names


def clause_form(c: Clause) -> str:
    """The canonical form of c, its head held in place."""
    return _form(_literal_layout(c.head), [_literal_layout(a) for a in c.body])


def variant_key(body: Iterable[Atom]) -> str:
    """The canonical form of `k :- body`: equal for two bodies iff they
    are variants as multisets of literals."""
    return _form(("k", []), [_literal_layout(a) for a in body])


def variant_equal(c1: Clause, c2: Clause) -> bool:
    """True iff a variable bijection maps c1 onto c2, bodies as multisets."""
    return len(c1.body) == len(c2.body) and clause_form(c1) == clause_form(c2)


def _form(head: tuple, body: list) -> str:
    """The clause with these _literal_layout forms, its body sorted under a
    canonical labelling and its variables then named by first occurrence.
    A body in components that share only head variables is formed by
    component, as isomorphic components would each cost the search a
    branch: their forms, sorted, are joined by "; "."""
    lits = (head, *body)
    occurrences: dict = {}
    for k, (fmt, names) in enumerate(lits):
        for i, v in enumerate(names):
            occurrences.setdefault(v, []).append((k > 0, fmt, i))
    colour = {v: tuple(sorted(o)) for v, o in occurrences.items()}
    order = sorted(colour, key=colour.__getitem__)
    n = len(order)

    def labelled(order: list) -> list:  # each variable as its index in order
        at = dict(zip(order, range(n)))
        return [(fmt, [at[v] for v in names]) for fmt, names in lits]

    if len(set(colour.values())) < n:
        parts = _components(lits)
        if len(parts) > 1:
            return "; ".join(sorted(_form(head, [body[k - 1] for k in part]) for part in parts))
        order = [order[k] for k in _search(labelled(order), [colour[v] for v in order])]
    by_label = labelled(order)
    ranked = [0] + sorted(range(1, len(lits)), key=by_label.__getitem__)
    first = dict.fromkeys(v for k in ranked for v in lits[k][1])
    name = dict(zip(first, map(_canonical_name, range(n))))
    head_text, *rest = [lits[k][0].format(*[name[v] for v in lits[k][1]]) for k in ranked]
    return f"{head_text} :- {', '.join(rest)}." if rest else f"{head_text}."


def _components(lits: tuple) -> list:
    """The body literals' indices, grouped as non-head variables link them."""
    parent: dict = {}
    ids = {v: -1 for v in lits[0][1]}  # head variables link nothing
    for k, (_, names) in enumerate(lits[1:], 1):
        for v in names:
            if ids.setdefault(v, -2 - len(ids)) != -1:
                _union(parent, k, ids[v])
    parts: dict = {}
    for k in range(1, len(lits)):
        parts.setdefault(_find(parent, k), []).append(k)
    return list(parts.values())


def _refine(part: tuple, links: list, queue: list):
    """Split cells until two variables share one only if they have equal
    multisets of links into each cell, by the cells starting at `queue`
    and the pieces of split cells, all but a largest one."""
    order, pos, cell, size = part
    queue = dict.fromkeys(queue)  # popped last in, first out
    while queue:
        s = queue.popitem()[0]
        keys: dict = {}
        for w in order[s:s + size[s]]:
            for x, link in links[w]:
                if size[cell[x]] > 1:
                    keys.setdefault(x, []).append(link)
        touched: dict = {}
        for x, key in keys.items():
            touched.setdefault(cell[x], []).append((sorted(key), x))
        for c in sorted(touched):
            group = sorted(touched[c])
            if len(group) == size[c] and group[0][0] == group[-1][0]:
                continue
            # the linked variables move to the cell's end, a new cell per key
            end = c + size[c]
            at = end - len(group)
            pieces = [c] if at > c else []
            for k, (key, x) in enumerate(group):
                if not k or key != group[k - 1][0]:
                    pieces.append(at)
                _place(part, x, at, pieces[-1])
                at += 1
            for a, b in zip(pieces, pieces[1:] + [end]):
                size[a] = b - a
            keep = c if c in queue else max(pieces, key=size.__getitem__)
            queue.update((a, None) for a in pieces if a != keep)


def _place(part: tuple, x: int, at: int, start: int):
    """Swap x to index `at` of the order, in the cell starting at `start`."""
    order, pos, cell, _ = part
    y, i = order[at], pos[x]
    order[i], order[at] = y, x
    pos[y], pos[x], cell[x] = i, at, start


def _find(parent: dict, x: int) -> int:
    while x in parent:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _union(parent: dict, x: int, y: int):
    x, y = _find(parent, x), _find(parent, y)
    if x != y:
        parent[max(x, y)] = min(x, y)


def _search(lits: list, colours: list) -> list:
    """The variables of `lits`, numbered in the order of their `colours`,
    refined and, where cells tie, searched for the leaf whose labelled body
    sorts least. A child gives one class of twins (variables whose literals
    coincide once it is blanked out) of the first tied cell cells of their
    own. Leaves that render alike give an automorphism that fixes the node
    N where their paths part: the search goes back to N, whose children in
    one orbit of those found below it have equal leaves."""
    # a partition: the order, each variable's index in it and cell start,
    # and at each cell's start its size
    n = len(colours)
    order, pos, cell, size = list(range(n)), list(range(n)), [0] * n, [0] * n
    for v in order:
        cell[v] = v if not v or colours[v] != colours[v - 1] else cell[v - 1]
        size[cell[v]] += 1
    # links[w]: (x, (layout, x's position, w's position)) per body literal
    links: list = [[] for _ in range(n)]
    holders: list = [[] for _ in range(n)]
    for k, (fmt, vs) in enumerate(lits[1:], 1):
        for j, w in enumerate(vs):
            links[w] += [(x, (fmt, i, j)) for i, x in enumerate(vs) if i != j]
            holders[w] += [k] if holders[w][-1:] != [k] else []

    def classes(part: tuple) -> list:
        order, _, _, size = part
        at = next(k for k in range(n) if size[k] > 1)
        twins: dict = {}
        for v in sorted(order[at:at + size[at]]):
            blanked = [(lits[k][0], [-1 if u == v else u for u in lits[k][1]]) for k in holders[v]]
            twins.setdefault(repr(sorted(blanked)), []).append(v)
        return list(twins.values())

    part = (order, pos, cell, size)
    _refine(part, links, sorted(set(cell)))
    if size.count(1) == n:
        return order
    best = None  # (rendering, path, order) of the best leaf so far
    # each node: its partition, its children left, those searched, orbits
    stack = [(part, iter(classes(part)), [], {})]
    while stack:
        node, todo, searched, orbits = stack[-1]
        cls = next((c for c in todo if all(
            _find(orbits, c[0]) != _find(orbits, u) for u in searched)), None)
        if cls is None:
            stack.pop()
            for x in orbits if stack else ():  # automorphisms found below
                _union(stack[-1][3], x, _find(orbits, x))
            continue
        searched.append(cls[0])
        child = tuple(list(a) for a in node)
        c = child[2][cls[0]]
        at = c + child[3][c] - len(cls)
        child[3][c] = at - c
        for k, x in enumerate(cls, at):
            _place(child, x, k, k)
            child[3][k] = 1
        _refine(child, links, list(range(at, at + len(cls))))
        if child[3].count(1) < n:
            stack.append((child, iter(classes(child)), [], {}))
            continue
        rendering = sorted((fmt, [child[1][v] for v in vs]) for fmt, vs in lits[1:])
        path = [s[2][-1] for s in stack]
        if best is None or rendering < best[0]:
            best = (rendering, path, child[0])
        elif rendering == best[0]:
            d = next(k for k, (a, b) in enumerate(zip(path, best[1])) if a != b)
            for x, y in zip(best[2], child[0]):
                _union(stack[d][3], x, y)
            while len(stack) > d + 1:
                orbits = stack.pop()[3]
                for x in orbits:
                    _union(stack[-1][3], x, _find(orbits, x))
    return best[2]


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


def keyed_subsets(body: tuple, lo: int, hi: int, forms: Optional[dict] = None) -> list:
    """(index tuple, variant key) of each connected sub-body of `body`
    with lo..hi literals, in connected_index_subsets order. Each literal
    is laid out once for all the sub-bodies holding it. `forms` maps a
    sub-body's signature, its literal formats in order and its variables
    numbered by first occurrence, to its key: two sub-bodies with one
    signature are renamings of each other, literal for literal, so each
    signature is formed once per dict, which many calls may share."""
    layouts = [_literal_layout(a) for a in body]
    forms = {} if forms is None else forms
    out = []
    for idxs in connected_index_subsets(body, lo, hi):
        sub = [layouts[k] for k in idxs]
        number: dict = {}
        signature = (
            tuple(fmt for fmt, _ in sub),
            tuple(number.setdefault(v, len(number)) for _, names in sub for v in names),
        )
        key = forms.get(signature)
        if key is None:
            key = forms[signature] = _form(("k", []), sub)
        out.append((idxs, key))
    return out


def first_occurrence_vars(lits: Iterable[Atom]) -> list:
    seen = {}
    for lit in lits:
        for v in lit.variables():
            seen.setdefault(v, None)
    return list(seen)
