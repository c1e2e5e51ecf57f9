"""Error types shared across the package, and the check of a census bound."""


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
