"""Exception types shared across the package, and the one type rule of every setting.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4. Every settings dataclass checks its fields with `setting`, so
flags, config files, model files and Python callers meet one check.
"""

KINDS = {int: "an integer", float: "a number", str: "a string"}


class ConfigError(ValueError):
    """Invalid configuration or precondition violation (bad shapes, ranges, flags)."""


class DataError(RuntimeError):
    """Input files that are missing, malformed, or inconsistent with their header."""


class NumericError(ArithmeticError):
    """Numerical failure: non-convergence, degenerate systems, NaN blow-ups."""


def setting(name: str, value: object, kind: type) -> object:
    """`value` as a setting of `kind`: an int, a float (an int or a float, returned as a float) or a
    str, never a bool. A mismatch, or an int beyond every float, is a ConfigError naming the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{name!r} must be {KINDS[kind]}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError as exc:
        raise ConfigError(f"{name!r} must be a finite number, got {value!r}") from exc
