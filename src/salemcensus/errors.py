"""Error types shared across the package, and the checks of a census
bound and of a fit's grid, which the CLI's plans make as the library does."""


class DomainError(ValueError):
    """A parameter is outside the domain an operation is defined on
    (field parameter not square-free, bound too small, ...)."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class CapacityError(ArithmeticError):
    """A computation exceeded the range it can be carried out in exactly."""


def _check_q(Q: int, minimum: int = 2, name: str = "Q") -> int:
    """Q, the bound of a census, or DomainError unless it is an integer >=
    minimum; name is how the message calls it."""
    if not isinstance(Q, int) or Q < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {Q}")
    return Q


def _check_grid(qs, name: str = "a fit") -> None:
    """DomainError unless the grid qs holds at least 3 distinct Q as doubles,
    the values asymptotics.power_fit fits: integers past 2^53 may round to
    one double.  name is how the message calls the grid."""
    n = len(set(map(float, qs)))
    if n < 3:
        raise DomainError(f"{name} needs at least 3 distinct Q as doubles, got {n}")
