"""Independent checks of the program's serialized outputs.

Every check re-derives its verdict with the exact Gaussian-integer
arithmetic of `qi`, from the points the workload generated and from
facts true by construction (the twist, the hand-derived group order).
Nothing is compared with a stored copy of an earlier output, and
nothing from `planar_descent` is imported.
"""

from __future__ import annotations

import qi


class CheckError(Exception):
    """An output violates a property the method guarantees."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def _map(data, what):
    require(data is not None, f"{what} missing")
    matrix, antiholo = qi.parse_map(data)
    require(qi.det3(matrix) != (0, 0), f"{what} is singular")
    return matrix, antiholo


def check_symmetry(points, data, what="element"):
    """The map carries the input set onto itself; returns (matrix, antiholo)."""
    matrix, antiholo = _map(data, what)
    images = qi.point_set(qi.image(matrix, antiholo, p) for p in points)
    require(images == qi.point_set(points), f"{what} does not carry the input onto itself")
    return matrix, antiholo


def check_fom(points, verdict, witness):
    require(verdict is True, "conj(S) should be equivalent to S")
    _, antiholo = check_symmetry(points, witness, "fom witness")
    require(antiholo, "fom witness must be antiholomorphic")


def check_positive(points, cert):
    """A descent certificate: stable model, splitter onto the input, cocycle."""
    require(cert["descends"] is True, "the set should descend")
    check_fom(points, cert["fom_real"], cert["fom_witness"])
    require(cert["real_model"] is not None, "real model missing")
    model = [qi.parse_point(s) for s in cert["real_model"]["points"]]
    require(len(model) == len(points), "model has the wrong number of points")
    require(qi.point_set(model) == qi.point_set(qi.conj_vec(p) for p in model),
            "model is not conjugation-stable")
    b, b_anti = _map(cert["splitter"], "splitter")
    require(not b_anti, "splitter must be holomorphic")
    require(qi.point_set(qi.matvec(b, p) for p in model) == qi.point_set(points),
            "splitter does not carry the model onto the input")
    c, c_anti = _map(cert["cocycle"], "cocycle")
    require(c_anti, "cocycle must be antiholomorphic")
    # cocycle = B conj(B)^-1 up to scalar  <=>  cocycle . conj(B) ~ B
    require(qi.proportional(qi.flatten(qi.matmul(c, qi.conj_mat(b))), qi.flatten(b)),
            "cocycle is not B conj(B)^-1")
    require(qi.proportional(qi.flatten(qi.matmul(c, qi.conj_mat(c))),
                            qi.flatten(qi.identity())),
            "cocycle does not square to the identity")
    check_symmetry(points, cert["cocycle"], "cocycle")


def check_refutation(points, cert, square):
    """S and S': conj-equivalent, no descent, every coset element squares to square."""
    require(cert["descends"] is False, "the family must not descend")
    check_fom(points, cert["fom_real"], cert["fom_witness"])
    require(cert["real_model"] is None and cert["splitter"] is None,
            "a refutation must not carry a model")
    require(len(cert["refutation"]) == 2, "the antiholomorphic coset has two elements")
    for entry in cert["refutation"]:
        a, antiholo = check_symmetry(points, entry["element"], "refutation element")
        require(antiholo, "refutation elements are antiholomorphic")
        sq, sq_anti = _map(entry["square"], "square")
        require(not sq_anti, "a square of an antiholomorphic map is holomorphic")
        require(qi.proportional(qi.flatten(sq), qi.flatten(qi.matmul(a, qi.conj_mat(a)))),
                "reported square is not element . conj(element)")
        require(qi.proportional(qi.flatten(sq), qi.flatten(square)),
                "square is not the twisted diag(-1,-1,1)")


def check_normalizer(points, group, order, square=None):
    """Every element is a symmetry, they are distinct, and there are `order`."""
    elements = group["elements"]
    require(group["order"] == order == len(elements),
            f"group order {group['order']} with {len(elements)} elements, expected {order}")
    seen = set()
    antis = 0
    for data in elements:
        a, antiholo = check_symmetry(points, data)
        seen.add((antiholo, qi.key(qi.flatten(a))))
        if antiholo:
            antis += 1
            if square is not None:
                require(qi.proportional(qi.flatten(qi.matmul(a, qi.conj_mat(a))),
                                        qi.flatten(square)),
                        "antiholomorphic element does not square to the twisted diag(-1,-1,1)")
    require(len(seen) == order, "normalizer lists an element twice")
    require(antis == order // 2, "antiholomorphic elements are not half the group")


def verdict(cert):
    return cert["fom_real"], cert["descends"]


def check_generic(points, cert, expect):
    if expect["descends"]:
        check_positive(points, cert)
        return
    # A random set is almost surely not conj-equivalent; should it be,
    # the witness and the certificate must still check.
    if cert["fom_real"]:
        check_fom(points, True, cert["fom_witness"])
        if cert["descends"]:
            check_positive(points, cert)
        return
    require(cert["descends"] is False and cert["fom_witness"] is None
            and not cert["refutation"], "a negative fom verdict carries no witness")


def check_output(workload, case, payload):
    """Check one decision's serialized output against its case."""
    expect = case.expect
    if workload == "battery":
        check_positive(case.points, payload["certificate"])
        require(payload["model_check"] == [True, None], "real_model_check rejected the model")
    elif workload == "symmetric":
        check_fom(case.points, payload["fom"]["fom_real"], payload["fom"]["witness"])
        check_normalizer(case.points, payload["normalizer"], expect["order"],
                         expect.get("square"))
        if expect["descends"]:
            check_positive(case.points, payload["certificate"])
        else:
            check_refutation(case.points, payload["certificate"], expect["square"])
    else:
        check_generic(case.points, payload["certificate"], expect)


# --- self-test: the checker must reject tampered outputs --------------------------


def _times_i(text):
    re_part, im_part = qi.parse(text)
    return qi.fmt((-im_part, re_part))


def tamper_certificate(cert):
    """Splitter B -> B . diag(i, 1, 1).

    Then cocycle . conj(B') ~ B . diag(-i, 1, 1), never proportional to
    B' = B . diag(i, 1, 1), so a correct checker must reject it.
    """
    matrix = list(cert["splitter"]["matrix"])
    for k in (0, 3, 6):
        matrix[k] = _times_i(matrix[k])
    return dict(cert, splitter=dict(cert["splitter"], matrix=matrix))


def self_test(points, cert, family_points, family_element):
    """Feed a tampered certificate and a tampered group element; both must fail.

    The group element comes from the normalizer of a family S set, whose
    symmetry group has exactly four elements; flipping the flag of an
    antiholomorphic one gives a holomorphic map of order 4, which is not
    among them.
    """
    check_positive(points, cert)
    check_symmetry(family_points, family_element)
    problems = []
    try:
        check_positive(points, tamper_certificate(cert))
        problems.append("tampered certificate accepted")
    except CheckError:
        pass
    flipped = dict(family_element, antiholo=not family_element["antiholo"])
    try:
        check_symmetry(family_points, flipped)
        problems.append("tampered group element accepted")
    except CheckError:
        pass
    return problems

