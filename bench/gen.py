"""Deterministic, conflict-free synthetic inputs for the benchmark workloads.

The same (workload, seed, scale) always yields the same files. The
generator never calls the library: it keeps its own up/down bitsets and
follows the recipe of ``tests/witness_oracle.random_taxonomy`` in linear
passes. Disjoint pairs are planted only where the two down-sets do not
meet. Compatibility facts are added afterwards, and only where no
disjointness is derivable. So the ontology and its curation are free of
conflicts by construction.

Shape, kept regular so that the work per seed stays steady (the structure
counts the closure sees are the same for every seed of a workload):

* a breadth-first tree of fixed branching; the seed picks which class
  name sits at which position;
* about 5 % extra parents: a leaf gains a sibling of its parent as a
  second parent, which makes that parent pair compatible (a curation gap
  in disjointness mode unless the curation file covers it);
* disjoint pairs planted deep below those compatible pairs, so the
  non-disjointness recursion has to descend, plus plain disjoint sibling
  pairs;
* explicit ``$nonDisjoint`` / ``$inheritableNonDisjoint`` facts;
* quantified rule axioms, which are parsed and emitted but are not
  structural.

Every synset maps to exactly one class (a fixed share maps to two, with
``=`` and ``+``), so the number of questions is a fixed function of the
sizes and does not move with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

RELATIONS = ("agent", "patient", "located", "causes", "result", "part")

# Per-workload sizes. "full" is what the benchmark measures; "toy" keeps
# the smoke test fast.
SIZES = {
    "closure-sweep": {
        "full": dict(classes=300, branching=4, extra=0.05, deep_disjoint=10,
                     sibling_disjoint=20, nondisjoint=12, inheritable=8,
                     curated_share=0.5, rules=30, hyponymy=240, both=30,
                     antonymy=40, planted_open=16),
        "toy": dict(classes=60, branching=3, extra=0.05, deep_disjoint=4,
                    sibling_disjoint=4, nondisjoint=3, inheritable=2,
                    curated_share=0.5, rules=6, hyponymy=20, both=4,
                    antonymy=10, planted_open=4),
    },
    "corpus-oracle": {
        "full": dict(classes=5000, branching=4, extra=0.05, deep_disjoint=40,
                     sibling_disjoint=60, nondisjoint=40, inheritable=20,
                     curated_share=0.5, rules=1000, hyponymy=8000, both=1000,
                     antonymy=1000, planted_open=40),
        "toy": dict(classes=100, branching=4, extra=0.05, deep_disjoint=3,
                    sibling_disjoint=4, nondisjoint=3, inheritable=2,
                    curated_share=0.5, rules=20, hyponymy=60, both=10,
                    antonymy=20, planted_open=4),
    },
    "stub-prover": {
        "full": dict(classes=250, branching=4, extra=0.05,
                     deep_disjoint=8, sibling_disjoint=12, nondisjoint=6,
                     inheritable=3, curated_share=0.5, rules=25, hyponymy=48,
                     both=0, antonymy=12, planted_open=6),
        "toy": dict(classes=40, branching=3, extra=0.05, deep_disjoint=2,
                    sibling_disjoint=2, nondisjoint=2, inheritable=1,
                    curated_share=0.5, rules=4, hyponymy=8, both=0,
                    antonymy=4, planted_open=2),
    },
}

# The scripted prover proves a truth test when the class index of the
# conjecture's first constant is divisible by this; it never proves a
# falsity test.
STUB_MODULUS = 3


def class_name(index: int) -> str:
    return f"C{index:05d}"


def class_index(name: str) -> int:
    return int(name[1:])


@dataclass
class Inputs:
    """Generated files plus what the generator knows about their answers."""
    ontology: str
    curation: str
    mapping: str
    hyponymy: str
    antonymy: str
    # classes of every question, in corpus order: (c1, c2)
    questions: list = field(default_factory=list)
    # antonymy pairs on sibling pairs the generator left open: (c1, c2)
    planted_open: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Graph:
    """Positions 0..n-1 in breadth-first order; every edge points from a
    deeper position to a shallower one, so the graph is acyclic."""

    def __init__(self, n: int, branching: int):
        self.n = n
        self.parents = [[] for _ in range(n)]
        self.children = [[] for _ in range(n)]
        self.depth = [0] * n
        for p in range(1, n):
            parent = (p - 1) // branching
            self.add_edge(p, parent)
            self.depth[p] = self.depth[parent] + 1

    def add_edge(self, sub: int, sup: int):
        self.parents[sub].append(sup)
        self.children[sup].append(sub)

    def close(self):
        """Reflexive up/down sets as int bitsets."""
        n = self.n
        self.up = [0] * n
        for p in range(n):
            acc = 1 << p
            for q in self.parents[p]:
                acc |= self.up[q]
            self.up[p] = acc
        self.down = [0] * n
        for p in range(n - 1, -1, -1):
            acc = 1 << p
            for c in self.children[p]:
                acc |= self.down[c]
            self.down[p] = acc

    def sibling_pairs(self):
        seen = set()
        for p in range(self.n):
            kids = sorted(self.children[p])
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    seen.add((a, b))
        return sorted(seen)


class _Facts:
    """Explicit pair facts and the derivations the generator needs,
    computed from its own bitsets."""

    def __init__(self, g: _Graph):
        self.g = g
        self.disjoint: list[tuple[int, int]] = []
        self.nondisjoint: list[tuple[int, int]] = []
        self.inheritable: list[tuple[int, int]] = []

    def freeze_disjoint(self):
        """Per class, which disjoint pairs have it below their left (L) or
        right (R) member, and the same over its descendants (DL, DR)."""
        g = self.g
        own_l = [0] * g.n
        own_r = [0] * g.n
        for i, (a, b) in enumerate(self.disjoint):
            for x in _bits(g.down[a]):
                own_l[x] |= 1 << i
            for x in _bits(g.down[b]):
                own_r[x] |= 1 << i
        self.L, self.R = own_l, own_r
        self.DL = [0] * g.n
        self.DR = [0] * g.n
        for p in range(g.n - 1, -1, -1):
            dl, dr = own_l[p], own_r[p]
            for c in g.children[p]:
                dl |= self.DL[c]
                dr |= self.DR[c]
            self.DL[p], self.DR[p] = dl, dr

    def disjoint_derivable(self, a: int, b: int) -> bool:
        return bool((self.L[a] & self.R[b]) | (self.R[a] & self.L[b]))

    def disjoint_below(self, a: int, b: int) -> bool:
        """Some descendant of a is derivably disjoint from one of b."""
        return bool((self.DL[a] & self.DR[b]) | (self.DR[a] & self.DL[b]))

    def asserted_compatible(self, a: int, b: int) -> bool:
        """Non-disjointness derivable from the explicit pair facts alone."""
        down = self.g.down
        for m1, m2 in self.nondisjoint:
            if (down[a] >> m1 & 1 and down[b] >> m2 & 1) or \
                    (down[a] >> m2 & 1 and down[b] >> m1 & 1):
                return True
        for i1, i2 in self.inheritable:
            if (down[a] & down[i1] and down[b] & down[i2]) or \
                    (down[a] & down[i2] and down[b] & down[i1]):
                return True
        return False


def _pick(rng: random.Random, pool: list, count: int) -> list:
    return rng.sample(pool, min(count, len(pool)))


def generate(workload: str, seed: int, scale: str = "full") -> Inputs:
    size = SIZES[workload][scale]
    rng = random.Random(f"{workload}:{seed}:{scale}")
    n = size["classes"]
    g = _Graph(n, size["branching"])
    names = list(range(n))
    rng.shuffle(names)

    def name(p: int) -> str:
        return class_name(names[p])

    # Extra parents: a class on the deepest level gains a second parent,
    # a sibling of its parent. That parent pair becomes compatible through
    # the shared child. Only parents with a full set of children take part,
    # and each in one such pair at most, so every recursion of the
    # non-disjointness assumption below such a pair has the same size.
    deepest = max(g.depth)
    branching = size["branching"]

    def full(p: int) -> bool:
        return len(g.children[p]) == branching

    leaves = [p for p in range(n)
              if g.depth[p] == deepest and full(g.parents[p][0])]
    extra_edges, compatible_siblings, paired = [], [], set()
    for x in rng.sample(leaves, len(leaves)):
        if len(extra_edges) == round(size["extra"] * n):
            break
        parent = g.parents[x][0]
        uncles = [q for q in g.children[g.parents[parent][0]]
                  if q != parent and full(q) and q not in paired]
        if parent not in paired and uncles:
            q = rng.choice(uncles)
            g.add_edge(x, q)
            extra_edges.append((x, q))
            compatible_siblings.append(tuple(sorted((parent, q))))
            paired.update((parent, q))
    g.close()

    facts = _Facts(g)
    compatible_siblings.sort()
    separate_siblings = [(a, b) for a, b in g.sibling_pairs()
                         if not g.down[a] & g.down[b]]

    # Disjoint pairs deep below compatible siblings, a leaf below each side
    # only (so the two down-sets are apart); plain disjoint sibling pairs,
    # a fixed number one level above the leaves and the rest among them,
    # away from the compatible pairs so that they do not change the
    # recursion below those.
    planted = set()
    for a, b in _pick(rng, compatible_siblings, size["deep_disjoint"]):
        only_a = [p for p in g.children[a] if p not in g.children[b]]
        only_b = [p for p in g.children[b] if p not in g.children[a]]
        planted.add(tuple(sorted((rng.choice(only_a), rng.choice(only_b)))))
    upper_share = size["sibling_disjoint"] // 4
    for depth, count in ((deepest - 1, upper_share),
                         (deepest, size["sibling_disjoint"] - upper_share)):
        level = [(a, b) for a, b in separate_siblings
                 if g.depth[a] == depth and g.depth[b] == depth
                 and not {a, b, g.parents[a][0]} & paired]
        planted.update(_pick(rng, level, count))
    facts.disjoint = sorted(planted)
    facts.freeze_disjoint()

    # Compatibility facts only where no disjointness is derivable: the
    # plain predicate needs the pair itself clear, the inheritable one
    # every descendant combination.
    def random_pairs(count: int, clash) -> list[tuple[int, int]]:
        chosen: set[tuple[int, int]] = set()
        for _ in range(100 * n):
            if len(chosen) == count:
                break
            x, y = sorted(rng.sample(range(n), 2))
            if not g.down[x] & g.down[y] and not clash(x, y):
                chosen.add((x, y))
        return sorted(chosen)

    facts.nondisjoint = random_pairs(size["nondisjoint"],
                                     facts.disjoint_derivable)
    facts.inheritable = [p for p in random_pairs(size["inheritable"],
                                                 facts.disjoint_below)
                         if p not in facts.nondisjoint]
    ontology = _ontology_text(g, facts, extra_edges, name, rng, size["rules"])

    # Curation for a share of the sibling pairs compatible only through a
    # shared descendant.
    gaps = [(a, b) for a, b in compatible_siblings
            if not facts.asserted_compatible(a, b)]
    curated_nd, curated_ind = [], []
    for a, b in _pick(rng, gaps, round(size["curated_share"] * len(gaps))):
        (curated_nd if facts.disjoint_below(a, b) else curated_ind).append((a, b))

    # Sibling pairs left open: no shared descendant and nothing derivable
    # either way, curation included.
    asserted = len(facts.nondisjoint) + len(facts.inheritable)
    facts.nondisjoint += curated_nd
    facts.inheritable += curated_ind
    open_pool = [(a, b) for a, b in separate_siblings
                 if not facts.disjoint_derivable(a, b)
                 and not facts.asserted_compatible(a, b)]
    planted_open = _pick(rng, open_pool, size["planted_open"])
    curation = "".join(f"($nonDisjoint {name(a)} {name(b)})\n"
                       for a, b in sorted(curated_nd))
    curation += "".join(f"($inheritableNonDisjoint {name(a)} {name(b)})\n"
                        for a, b in sorted(curated_ind))

    inputs = Inputs(ontology=ontology, curation=curation, mapping="",
                    hyponymy="", antonymy="")
    _lexicon(inputs, g, facts, planted_open, separate_siblings, name, names,
             rng, size)
    inputs.counts = {
        "classes": n, "extra_parents": len(extra_edges),
        "disjoint": len(facts.disjoint), "compatible": asserted,
        "gaps": len(gaps), "curated": len(curated_nd) + len(curated_ind),
        "open_pool": len(open_pool), "questions": len(inputs.questions),
    }
    return inputs


def _ontology_text(g, facts, extra_edges, name, rng, rules) -> str:
    lines = ["; synthetic benchmark ontology"]
    for p in range(1, g.n):
        lines.append(f"($subclass {name(p)} {name(g.parents[p][0])})")
    for x, q in extra_edges:
        lines.append(f"($subclass {name(x)} {name(q)})")
    lines += [f"($disjoint {name(a)} {name(b)})" for a, b in facts.disjoint]
    lines += [f"($nonDisjoint {name(a)} {name(b)})"
              for a, b in facts.nondisjoint]
    lines += [f"($inheritableNonDisjoint {name(a)} {name(b)})"
              for a, b in facts.inheritable]
    for i in range(rules):
        a, b, c = (name(rng.randrange(g.n)) for _ in range(3))
        rel = RELATIONS[i % len(RELATIONS)]
        shape = i % 3
        if shape == 0:
            lines.append(f"(forall (?X) (=> ($instance ?X {a}) (exists (?Y) "
                         f"(and ($instance ?Y {b}) ({rel} ?X ?Y)))))")
        elif shape == 1:
            lines.append(f"(forall (?X ?Y) (=> (and ($instance ?X {a}) "
                         f"({rel} ?X ?Y)) ($instance ?Y {b})))")
        else:
            lines.append(f"(forall (?X) (=> ($instance ?X {a}) "
                         f"(or ($instance ?X {b}) ($instance ?X {c}))))")
    return "\n".join(lines) + "\n"


def _lexicon(inputs: Inputs, g, facts, planted_open, separate_siblings,
             name, names, rng, size):
    """Mapping and relation pairs with an exact number of questions.

    Each class has a canonical synset ``lemma#pos#1`` with one link. Each
    hyponymy pair has a fresh hyponym sense ``lemma#pos#k`` (k >= 2) with
    one link, ``=`` or ``+``, or both for ``size['both']`` of them; its
    hypernym is the canonical synset of an ancestor (one pair in five
    names an unrelated class). Antonymy pairs join canonical synsets.
    """
    n = g.n
    verbs = set(rng.sample(range(n), n // 4))

    def lemma(p: int) -> str:
        return name(p).lower()

    def pos(p: int) -> str:
        return "v" if p in verbs else "n"

    def canonical(p: int) -> str:
        return f"{lemma(p)}#{pos(p)}#1"

    plus_canonical = set(rng.sample(range(n), n // 5))
    used_canonical = set()
    mapping, hyponymy, antonymy = [], [], []

    def use(p: int) -> str:
        used_canonical.add(p)
        return canonical(p)

    # Antonymy first: the planted open pairs, then other sibling pairs.
    antonymy_pairs = list(planted_open)
    chosen = set(planted_open)
    rest = [p for p in separate_siblings if p not in chosen]
    antonymy_pairs += _pick(rng, rest, size["antonymy"] - len(antonymy_pairs))
    proved = 0
    for a, b in antonymy_pairs:
        antonymy.append(f"{use(a)}\t{use(b)}")
        inputs.questions.append((name(a), name(b)))
        proved += names[a] % STUB_MODULUS == 0
    inputs.planted_open = [(name(a), name(b)) for a, b in planted_open]

    # Hyponymy: keep the number of truth tests the scripted prover proves
    # at a fixed share of all questions.
    weights = [2 if i < size["both"] else 1 for i in range(size["hyponymy"])]
    need = (sum(weights) + len(antonymy_pairs)) // STUB_MODULUS - proved
    wanted = set()
    for i in rng.sample(range(len(weights)), len(weights)):
        if weights[i] <= need:
            wanted.add(i)
            need -= weights[i]
    senses: dict[int, int] = {}
    by_residue = {want: [p for p in range(1, n)
                         if (names[p] % STUB_MODULUS == 0) == want]
                  for want in (True, False)}
    for i in range(size["hyponymy"]):
        both = weights[i] == 2
        x = rng.choice(by_residue[i in wanted])
        senses[x] = senses.get(x, 1) + 1
        hypo = f"{lemma(x)}#{pos(x)}#{senses[x]}"
        ancestors = [q for q in _bits(g.up[x]) if q != x]
        if i % 5 == 4:
            y = rng.randrange(n)
            while y == x or y in ancestors:
                y = rng.randrange(n)
        else:
            y = rng.choice(ancestors)
        if both:
            mapping.append(f"{hypo}\t{name(x)}=")
            mapping.append(f"{hypo}\t{name(x)}+")
            inputs.questions += [(name(x), name(y))] * 2
        else:
            symbol = "=" if rng.random() < 0.5 else "+"
            mapping.append(f"{hypo}\t{name(x)}{symbol}")
            inputs.questions.append((name(x), name(y)))
        hyponymy.append(f"{hypo}\t{use(y)}")
    for p in sorted(used_canonical):
        symbol = "+" if p in plus_canonical else "="
        mapping.append(f"{canonical(p)}\t{name(p)}{symbol}")
    inputs.mapping = "# synset\tclass\n" + "\n".join(mapping) + "\n"
    inputs.hyponymy = "# hyponym\thypernym\n" + "\n".join(hyponymy) + "\n"
    inputs.antonymy = "\n".join(antonymy) + "\n"
