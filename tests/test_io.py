import pytest

import systolic as S
from systolic import ComplexError
from systolic.io import (
    ParseError,
    format_complex,
    parse_complex_file,
    parse_complex_text,
)


class TestRoundtrip:
    def test_flag_roundtrip(self, octa):
        text = format_complex(octa, "octahedron")
        parsed = parse_complex_text(text)
        assert parsed.name == "octahedron"
        assert parsed.mode == "flag"
        assert list(parsed.complex.edges()) == list(octa.edges())
        assert parsed.facet_complex is None
        assert parsed.automorphism is None

    def test_facets_roundtrip(self):
        from systolic import FacetComplex

        fc = FacetComplex([(0, 1, 2), (2, 3), (4,)])
        text = "complex fan\nmode facets\nvertices 5\nfacet 0 1 2\nfacet 2 3\nfacet 4\n"
        parsed = parse_complex_text(text)
        assert parsed.mode == "facets"
        assert parsed.facet_complex.facets == fc.facets
        assert list(parsed.complex.edges()) == list(fc.one_skeleton().edges())

    def test_serialization_is_a_fixed_point(self, icosa):
        once = format_complex(icosa, "ico")
        assert format_complex(parse_complex_text(once).complex, "ico") == once

    def test_map_lines_roundtrip(self, octa):
        h = S.octahedron_antipodal()
        text = format_complex(octa, "octa", automorphism=h)
        parsed = parse_complex_text(text)
        assert parsed.automorphism is not None
        assert parsed.automorphism.mapping == h.mapping
        assert S.validate_automorphism(parsed.complex, parsed.automorphism).is_yes

    def test_header_comments_are_ignored(self, octa):
        text = format_complex(octa, "octa", header_comments=("generated", "v1"))
        assert text.startswith("# generated\n# v1\n")
        assert list(parse_complex_text(text).complex.edges()) == list(octa.edges())

    def test_parse_file(self, tmp_path, torus44):
        p = tmp_path / "torus.txt"
        p.write_text(format_complex(torus44, "torus"))
        parsed = parse_complex_file(str(p))
        assert parsed.complex.n_vertices == 16


class TestParsing:
    def test_isolated_vertices_in_facets_mode(self):
        parsed = parse_complex_text(
            "complex dots\nmode facets\nvertices 4\nfacet 0 1\n"
        )
        assert parsed.complex.n_vertices == 4
        assert (2,) in parsed.facet_complex.facets
        assert (3,) in parsed.facet_complex.facets

    def test_comments_and_blank_lines(self):
        parsed = parse_complex_text(
            "# a triangle\n\ncomplex t # inline comment\nmode flag\n"
            "vertices 3\nedge 0 1\nedge 1 2\nedge 0 2\n"
        )
        assert parsed.complex.maximal_cliques() == [(0, 1, 2)]

    def test_zero_vertices(self):
        parsed = parse_complex_text("complex empty\nmode flag\nvertices 0\n")
        assert parsed.complex.n_vertices == 0


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ParseError) as info:
            parse_complex_text(text)
        return info.value

    def test_duplicate_headers(self):
        assert self.err("complex a\ncomplex b\n").line_no == 2
        assert self.err("complex a\nmode flag\nmode flag\n").line_no == 3
        assert (
            self.err("complex a\nmode flag\nvertices 1\nvertices 1\n").line_no == 4
        )

    def test_missing_headers(self):
        assert "complex" in str(self.err("mode flag\nvertices 1\n"))
        assert "mode" in str(self.err("complex a\nvertices 1\n"))
        assert "vertices" in str(self.err("complex a\nmode flag\n"))

    def test_bad_integers(self):
        e = self.err("complex a\nmode flag\nvertices 2\nedge 0 x\n")
        assert e.line_no == 4 and "'x'" in str(e)

    def test_unknown_directive(self):
        assert self.err("complex a\nmode flag\nvertices 1\nhello\n").line_no == 4

    def test_wrong_mode_directives(self):
        assert "flag mode" in str(
            self.err("complex a\nmode flag\nvertices 3\nfacet 0 1\n")
        )
        assert "facets mode" in str(
            self.err("complex a\nmode facets\nvertices 3\nedge 0 1\n")
        )

    def test_out_of_range_ids(self):
        assert "outside" in str(
            self.err("complex a\nmode flag\nvertices 2\nedge 0 5\n")
        )
        assert "outside" in str(
            self.err("complex a\nmode facets\nvertices 2\nfacet 0 3\n")
        )
        assert "outside" in str(
            self.err("complex a\nmode flag\nvertices 2\nedge 0 1\nmap 0 9\n")
        )

    def test_duplicate_map_source(self):
        e = self.err(
            "complex a\nmode flag\nvertices 2\nedge 0 1\nmap 0 1\nmap 0 0\n"
        )
        assert e.line_no == 6

    def test_bad_mode_value(self):
        assert "'flag' or 'facets'" in str(self.err("complex a\nmode maximal\n"))

    def test_negative_vertex_count(self):
        assert "negative" in str(self.err("complex a\nmode flag\nvertices -2\n"))


class TestFormatting:
    def test_sparse_ids_rejected(self, octa):
        sub = octa.span([0, 2, 4])
        with pytest.raises(ComplexError):
            format_complex(sub, "sparse")

    def test_window_complex_serializes(self, window10):
        text = format_complex(window10, "lattice_r10_m4")
        parsed = parse_complex_text(text)
        assert parsed.complex.n_vertices == 331
