"""Error types shared across the package, and the check of a census bound."""


class DomainError(ValueError):
    """A parameter is outside the domain an operation is defined on
    (field parameter not square-free, bound too small, ...)."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class CapacityError(ArithmeticError):
    """A computation exceeded the range it can be carried out in exactly."""


def _check_q(Q: int) -> None:
    """Q, the bound of every census, is an integer >= 2, or DomainError."""
    if not isinstance(Q, int) or Q < 2:
        raise DomainError(f"Q must be an integer >= 2, got {Q}")
