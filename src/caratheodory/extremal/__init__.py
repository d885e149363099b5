from .lp import (
    ExtremalCertificate,
    ExtremalProblem,
    choose_poles,
    lp_caratheodory_lower,
)

__all__ = [
    "ExtremalCertificate",
    "ExtremalProblem",
    "choose_poles",
    "lp_caratheodory_lower",
]
