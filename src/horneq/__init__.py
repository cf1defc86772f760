"""Horn logic with equality: parsing, free models, and theory compilers.

The package computes free (or weakly free) models of finite relational
structures under Horn theories with equality, using union-find-backed
structures and a saturating evaluation loop, and provides the standard
compilations between theory fragments: flattening of partial functions,
setoid rewrites of equality, and elimination of existential conclusion
variables.
"""

from .core import (El, Morphism, RelDecl, Signature, SignatureError,
                   Structure, coproduct, pushout, quotient_by_relation)
from .syntax import (App, DefinedAtom, EqualAtom, Formula, ParseError,
                     Sequent, Theory, Var, parse_theory, pretty_print)
from .classify import (classify_sequent, classifying_morphism,
                       classifying_structure, flatten_theory,
                       functionality_theory, sequent_from_morphism,
                       strengthen_theory)
from .engine import (EvalConfig, EvalReport, EvaluationBudgetError, evaluate,
                     satisfies, satisfies_theory)
from .oracle import (enumerate_morphisms, find_isomorphism, is_injective_to,
                     is_orthogonal_to)
from .transform import (diagonal_embed, epic_transform, quotient_model,
                        setoid_transform, sparse_setoid_transform)

__all__ = [
    "App", "DefinedAtom", "El", "EqualAtom", "EvalConfig", "EvalReport",
    "EvaluationBudgetError", "Formula", "Morphism", "ParseError", "RelDecl",
    "Sequent", "Signature", "SignatureError", "Structure", "Theory", "Var",
    "classify_sequent", "classifying_morphism", "classifying_structure",
    "coproduct", "diagonal_embed", "enumerate_morphisms", "epic_transform",
    "evaluate", "find_isomorphism", "flatten_theory",
    "functionality_theory", "is_injective_to",
    "is_orthogonal_to", "parse_theory", "pretty_print", "pushout",
    "quotient_by_relation", "quotient_model", "satisfies",
    "satisfies_theory", "sequent_from_morphism", "setoid_transform",
    "sparse_setoid_transform", "strengthen_theory",
]

__version__ = "0.1.0"
