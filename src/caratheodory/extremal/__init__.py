from .lp import ExtremalProblem, choose_poles, lp_caratheodory_lower

__all__ = ["ExtremalProblem", "choose_poles", "lp_caratheodory_lower"]
