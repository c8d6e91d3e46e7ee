"""The mutation tester's site keys (`tests/mutate.py`)."""

import ast

import mutate


def test_two_sites_of_the_same_text_in_one_function_get_distinct_keys():
    source = "def rows(cells):\n    return [cells[i:i + 4] for i in range(0, 16, 4)]\n"
    walker = mutate._Sites()
    walker.visit(ast.parse(source))
    keys = [site[:3] for site in walker.sites if site[1] == "int+1"]
    assert keys == [
        ("rows", "int+1", "4"),
        ("rows", "int+1", "0"),
        ("rows", "int+1", "16"),
        ("rows", "int+1", "4#2"),
    ]


def test_each_operand_of_a_chain_of_three_or_more_can_be_dropped():
    source = "def f(a, b, c):\n    return (a and b and c, a and b, a or b or a)\n"
    walker = mutate._Sites()
    walker.visit(ast.parse(source))
    keys = [site[:3] for site in walker.sites if site[1] == "drop-operand"]
    assert keys == [
        ("f", "drop-operand", "a"),
        ("f", "drop-operand", "b"),
        ("f", "drop-operand", "c"),
        ("f", "drop-operand", "a#2"),
        ("f", "drop-operand", "b#2"),
        ("f", "drop-operand", "a#3"),
    ]
    # each site drops its own operand and nothing else
    dropped = []
    for index, site in enumerate(walker.sites):
        if site[1] == "drop-operand":
            tree = mutate._Sites(target=index).visit(ast.parse(source))
            dropped.append(ast.unparse(tree.body[0].body[0].value))
    assert dropped == [
        "(b and c, a and b, a or b or a)",
        "(a and c, a and b, a or b or a)",
        "(a and b, a and b, a or b or a)",
        "(a and b and c, a and b, b or a)",
        "(a and b and c, a and b, a or a)",
        "(a and b and c, a and b, a or b)",
    ]


def test_every_listed_equivalent_mutant_names_a_site_of_the_package():
    # an entry whose code is gone, or whose text has changed, fails here
    # instead of lingering unused
    sites = {}
    for module, *key in mutate.EQUIVALENT:
        if module not in sites:
            sites[module] = {site[:3] for site in mutate._mutant(module, ())[0]}
        assert tuple(key) in sites[module], (module, *key)
