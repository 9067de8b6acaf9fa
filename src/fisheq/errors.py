"""Exception types shared across the package."""


class InvalidMarketError(ValueError):
    """Market data violates a precondition (nonpositive budget, negative
    utility, nothing left after preprocessing, ...), or an entry that must
    be an exact rational is a float or a bool."""


class FormatError(ValueError):
    """Malformed instance/equilibrium/trace document, including a file
    that cannot be read, is not UTF-8 or is not JSON (too deeply nested
    included), and an output that cannot be written."""


class InvariantError(RuntimeError):
    """An internal invariant or guard tripped.  This signals an
    implementation bug, not a bad input.

    Any exception raised out of the descent in ``solve_max_revenue``, this
    one or another, carries the solver state to replay from: ``phase``,
    ``iteration``, the sorted good set ``S`` and the kind of the ``event``
    being committed (None between commits).
    """

    phase = None
    iteration = None
    S = None
    event = None
