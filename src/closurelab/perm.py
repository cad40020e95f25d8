"""Permutations on a fixed finite domain, plus cycle-notation text, and
Record, the immutable base of the package's result types.

Points are 0-based integers internally; every text format (cycle notation,
domain labels, reports) is 1-based. A permutation is stored as its image
sequence: p.images[i] is the image of point i. Points act on the right,
so (alpha)^(pq) = ((alpha)^p)^q and compose(p, q) means "apply p, then q".
Degree is fixed per permutation; mixing degrees is an error, never padding.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import CycleParseError, DegreeLimitError, DegreeMismatchError

# Raw image helpers. Hot loops elsewhere in the package work on plain image
# sequences and only wrap results into Permutation at API boundaries. Packed
# images (pack_images) are bytes up to degree 256 and tuples above; only the
# brute route of harness.py keeps tables of its own. Bytes compose through one
# bytes.translate call, and the helpers keep the type of their argument.

Images = bytes | tuple[int, ...]
_PADS = [bytes(range(n, 256)) for n in range(257)]


def pack_images(images) -> Images:
    """The image sequence as bytes when its degree is at most 256, else a tuple."""
    return bytes(images) if len(images) <= 256 else tuple(images)


def translation_table(q: Images) -> bytes:
    """The table t with x.translate(t) == compose_images(x, q) for packed x;
    a tuple (degree above 256) has none and raises DegreeLimitError."""
    if type(q) is not bytes:
        raise DegreeLimitError(f"degree {len(q)} exceeds 256, the largest whose images are bytes")
    return q + _PADS[len(q)]


def compose_images(p: Images, q: Images) -> Images:
    """Image sequence of p-then-q, of the type of p."""
    if type(p) is bytes:
        # translation_table(q), inline on the hot path
        return p.translate(q + _PADS[len(q)])
    if len(p) > 1:
        # itemgetter gathers in C; with one index it returns a scalar
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)


def inverse_images(p: Images) -> Images:
    """Image sequence of the inverse of p, of the type of p."""
    if type(p) is bytes:
        # the table that sends p[i] to i, cut to the degree
        return bytes.maketrans(p, _PADS[0][: len(p)])[: len(p)]
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_images(degree: int) -> Images:
    """The packed identity of the degree."""
    return pack_images(range(degree))


class Permutation:
    """An immutable bijection of {0, ..., degree-1}."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    def __call__(self, point: int) -> int:
        """Image of a single point."""
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation(inverse_images(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def is_even(self) -> bool:
        """Whether the permutation is a product of an even number of transpositions."""
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by it."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        # Point-image lexicographic order; used for canonical sorting in reports.
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({print_cycles(self)!r}, degree={self.degree})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product p-then-q: result.images[i] = q.images[p.images[i]]."""
    if p.degree != q.degree:
        raise DegreeMismatchError(f"compose: degree {p.degree} vs {q.degree}")
    return Permutation(compose_images(p.images, q.images))


def _symmetric_on(points, degree) -> list[Permutation]:
    """Generators of the full symmetric group on a point subset, embedded."""
    pts = sorted(points)
    gens = []
    if len(pts) >= 2:
        tr = list(range(degree))
        tr[pts[0]], tr[pts[1]] = tr[pts[1]], tr[pts[0]]
        gens.append(Permutation(tuple(tr)))
    if len(pts) >= 3:
        cyc = list(range(degree))
        for i, p in enumerate(pts):
            cyc[p] = pts[(i + 1) % len(pts)]
        gens.append(Permutation(tuple(cyc)))
    return gens


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint cycles of 1-based points, separated by spaces or commas.

    "(1 2 3)(4 5)" with degree 5 gives images [1,2,0,4,3]. The empty string
    and "()" both denote the identity. Repeated points, points outside
    1..degree, and unbalanced parentheses raise CycleParseError with the
    offending character position.
    """
    images = list(range(degree))
    seen: set[int] = set()
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise CycleParseError(f"expected '(' but found {ch!r}", i)
        i += 1
        cycle: list[int] = []
        while True:
            while i < n and (text[i].isspace() or text[i] == ","):
                i += 1
            if i >= n:
                raise CycleParseError("unclosed cycle", i)
            if text[i] == ")":
                i += 1
                break
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i == start:
                raise CycleParseError(f"expected a point but found {text[i]!r}", i)
            pt = int(text[start:i])
            if not 1 <= pt <= degree:
                raise CycleParseError(f"point {pt} outside 1..{degree}", start)
            if pt - 1 in seen:
                raise CycleParseError(f"repeated point {pt}", start)
            seen.add(pt - 1)
            cycle.append(pt - 1)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Permutation(images)


def print_cycles(p: Permutation) -> str:
    """Cycle notation, 1-based; the identity prints as "()"."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt + 1) for pt in cyc) + ")" for cyc in cycles)


class Record:
    """An immutable record whose fields are the annotations of its class.

    Fields are given by position or by name, in annotation order; a field
    with a value in the class body defaults to it. A subclass checks its
    fields in __post_init__. Records of one class compare and hash by their
    fields, never equal a record of another class or a tuple, and print as
    Name(field=value, ...). Nothing is generated when a subclass is created:
    every method reads the fields from type(self).__annotations__.
    """

    def __init__(self, *args, **kwargs):
        names = type(self).__annotations__
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """The field values in order, from args, then kwargs, then defaults."""
        cls = type(self)
        names = list(cls.__annotations__)
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields but {len(args)} were given")
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls.__dict__:
                values.append(cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "got multiple values for" if name in names else "got an unexpected"
            raise TypeError(f"{cls.__name__}() {problem} field {name!r}")
        return values

    def __post_init__(self) -> None:
        """Check the fields; a subclass with invariants overrides this."""

    def _values(self) -> tuple:
        """The field values in annotation order."""
        return tuple(map(self.__dict__.__getitem__, type(self).__annotations__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = zip(type(self).__annotations__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{name}={value!r}' for name, value in fields)})"


class Domain(Record):
    """A labeled point set: index i carries the printable label labels[i]."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("domain labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @staticmethod
    def natural(n: int) -> "Domain":
        """Points labeled "1" .. "n"."""
        return Domain(tuple(str(i + 1) for i in range(n)))
