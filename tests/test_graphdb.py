"""Tests for graph databases in set and bag semantics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ReproError
from repro.graphdb import BagGraphDatabase, Fact, GraphDatabase, as_set


class TestGraphDatabase:
    def test_construction_from_edges(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "b", "w")])
        assert len(database) == 2
        assert Fact("u", "a", "v") in database
        assert ("v", "b", "w") in database
        assert ("u", "b", "v") not in database

    def test_nodes_and_alphabet(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "b", "w")])
        assert database.nodes == {"u", "v", "w"}
        assert database.alphabet == {"a", "b"}

    def test_duplicate_facts_collapse(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("u", "a", "v")])
        assert len(database) == 1

    def test_remove_and_add_are_functional(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "b", "w")])
        smaller = database.remove([("u", "a", "v")])
        assert len(smaller) == 1
        assert len(database) == 2
        bigger = smaller.add([("x", "c", "y")])
        assert len(bigger) == 2

    def test_adjacency_maps(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("u", "b", "w")])
        assert len(database.outgoing()["u"]) == 2
        assert len(database.incoming()["v"]) == 1

    def test_facts_with_label(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("u", "b", "w")])
        assert database.facts_with_label("a") == {Fact("u", "a", "v")}

    def test_is_acyclic(self):
        dag = GraphDatabase.from_edges([("u", "a", "v"), ("v", "a", "w")])
        cycle = dag.add([("w", "a", "u")])
        assert dag.is_acyclic()
        assert not cycle.is_acyclic()

    def test_rename_nodes(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        renamed = database.rename_nodes({"u": "x"})
        assert Fact("x", "a", "v") in renamed

    def test_reverse(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        assert Fact("v", "a", "u") in database.reverse()

    def test_equality_and_hash(self):
        left = GraphDatabase.from_edges([("u", "a", "v")])
        right = GraphDatabase.from_edges([("u", "a", "v")])
        assert left == right
        assert hash(left) == hash(right)


class TestBagGraphDatabase:
    def test_multiplicities(self):
        bag = BagGraphDatabase.from_edges([("u", "a", "v", 3), ("v", "b", "w", 1)])
        assert bag.multiplicity(("u", "a", "v")) == 3
        assert bag.total_cost([("u", "a", "v"), ("v", "b", "w")]) == 4

    def test_rejects_non_positive_by_default(self):
        with pytest.raises(ReproError):
            BagGraphDatabase.from_edges([("u", "a", "v", 0)])

    def test_rejects_non_integer(self):
        with pytest.raises(ReproError):
            BagGraphDatabase({("u", "a", "v"): 1.5})
        # True equals 1 but would fingerprint apart from the equal unit bag.
        with pytest.raises(ReproError):
            BagGraphDatabase({("u", "a", "v"): True})

    def test_uniform_from_set_database(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        bag = database.to_bag(2)
        assert bag.multiplicity(("u", "a", "v")) == 2

    def test_remove(self):
        bag = BagGraphDatabase.from_edges([("u", "a", "v", 3), ("v", "b", "w", 1)])
        assert len(bag.remove([("u", "a", "v")])) == 1

    def test_reverse(self):
        bag = BagGraphDatabase.from_edges([("u", "a", "v", 3)])
        assert bag.reverse().multiplicity(("v", "a", "u")) == 3

    def test_as_set(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        bag = database.to_bag(1)
        assert as_set(bag) == database
        assert as_set(database) is database


class TestGenerators:
    def test_random_labelled_graph_reproducible(self):
        from repro.graphdb import generators

        first = generators.random_labelled_graph(5, 8, "ab", seed=3)
        second = generators.random_labelled_graph(5, 8, "ab", seed=3)
        assert first == second
        assert len(first) == 8

    def test_random_bag_database_is_one_bag_under_every_hash_seed(self):
        # Multiplicities are drawn in a hash-independent order, so a seed
        # names one bag in every process.
        script = (
            "from repro.graphdb import generators; "
            "print(generators.random_bag_database(8, 20, 'abc', seed=5).content_fingerprint())"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        fingerprints = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for hash_seed in ("0", "123")
        }
        assert len(fingerprints) == 1

    def test_word_walk(self):
        from repro.graphdb import generators

        walk = generators.word_walk("abc")
        assert len(walk) == 3
        assert len(walk.nodes) == 4

    def test_layered_flow_database(self):
        from repro.graphdb import generators

        bag = generators.layered_flow_database(3, 2, seed=1)
        assert "a" in bag.alphabet and "b" in bag.alphabet
        assert all(mult >= 1 for mult in bag.multiplicities().values())

    def test_random_undirected_graph(self):
        from repro.graphdb import generators

        edges = generators.random_undirected_graph(6, 0.5, seed=2)
        assert all(left != right for left, right in edges)

    def test_cycle_and_complete_graphs(self):
        from repro.graphdb import generators

        assert len(generators.cycle_graph(5)) == 5
        assert len(generators.complete_graph(5)) == 10
