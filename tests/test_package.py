import horneq
import horneq.core
import horneq.engine
import horneq.oracle

PUBLIC = {
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
}

ORACLES = ("enumerate_morphisms", "find_isomorphism", "is_total_function",
           "satisfies_phl", "_eval_term", "_phl_atom_holds",
           "is_injective_to", "is_orthogonal_to", "_count_lifts")


def test_public_names():
    assert len(horneq.__all__) == len(PUBLIC) == 41
    assert set(horneq.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(horneq, name) is not None


def test_oracles_live_only_in_oracle():
    for name in ORACLES:
        assert hasattr(horneq.oracle, name)
        assert not hasattr(horneq.core, name)
        assert not hasattr(horneq.engine, name)
