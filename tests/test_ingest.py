import io
import math
import random
import time
from fractions import Fraction

import pytest

from oncograph import (
    DiagnosisEdge,
    EdgeColor,
    Effectiveness,
    GeneticEdge,
    MutationKey,
    PatientRecord,
    TreatmentEdge,
    cohort,
    errors,
    ingest,
    validate,
)


def mutation_tsv(rows):
    header = "sample_id\tgene\tchromosome\tstart_position\tend_position\tvaf"
    return io.StringIO("\n".join([header] + rows) + "\n")


class TestParseMutationTable:
    def test_two_valid_rows(self):
        res = ingest.parse_mutation_table(
            mutation_tsv(
                [
                    "P1\tKRAS\t12\t25398284\t25398284\t0.3",
                    "P2\tTP53\t17\t7578406\t7578406\t0.5",
                ]
            )
        )
        assert len(res.rows) == 2
        assert res.issues == []
        assert res.data_lines == 2

    def test_out_of_range_vaf_reported_others_kept(self):
        res = ingest.parse_mutation_table(
            mutation_tsv(
                [
                    "P1\tKRAS\t12\t25398284\t25398284\t1.5",
                    "P2\tTP53\t17\t7578406\t7578406\t0.5",
                ]
            )
        )
        assert len(res.rows) == 1
        assert len(res.issues) == 1
        assert res.issues[0].line == 2

    def test_missing_sample_column(self):
        bad = io.StringIO("gene\tchromosome\tstart_position\tend_position\nKRAS\t12\t1\t1\n")
        with pytest.raises(errors.MissingColumn):
            ingest.parse_mutation_table(bad)

    def test_comment_lines_skipped(self):
        res = ingest.parse_mutation_table(
            io.StringIO(
                "# a comment\nsample_id\tgene\tchromosome\tstart_position\tend_position\n"
                "# another\nP1\tKRAS\t12\t1\t1\n"
            )
        )
        assert len(res.rows) == 1
        assert res.rows[0].vaf is None

    @pytest.mark.parametrize(
        "text, message",
        [
            # The first two would read as the floats 1.0 and -0.0, inside [0, 1].
            ("1.00000000000000001", "vaf 1.00000000000000001 outside [0, 1]"),
            ("-1e-400", "vaf -1e-400 outside [0, 1]"),
            ("1.5", "vaf 1.5 outside [0, 1]"),
            ("1e999", "vaf 1e999 outside [0, 1]"),
            ("high", "non-numeric vaf 'high'"),
            ("1/2", "non-numeric vaf '1/2'"),
        ],
    )
    def test_vaf_is_checked_exactly(self, text, message):
        res = ingest.parse_mutation_table(mutation_tsv([f"P1\tKRAS\t12\t1\t1\t{text}"]))
        assert res.rows == []
        assert [e.message for e in res.issues] == [message]

    @pytest.mark.parametrize(
        "text, vaf",
        [
            ("0", 0.0), ("-0", 0.0), ("1.000", 1.0), ("1e-400", Fraction(1, 10**400)),
            ("0.99999999999999999999", Fraction(10**20 - 1, 10**20)),
        ],
    )
    def test_vaf_bounds_kept(self, text, vaf):
        res = ingest.parse_mutation_table(mutation_tsv([f"P1\tKRAS\t12\t1\t1\t{text}"]))
        assert res.issues == []
        assert [r.vaf for r in res.rows] == [vaf]

    def test_repeated_pair_keeps_the_exactly_larger_vaf(self):
        # Both texts read as the float 0.1, so a float comparison ties and
        # keeps the first row.
        res = ingest.parse_mutation_table(mutation_tsv(
            ["P1\tKRAS\t12\t1\t1\t0.1", "P1\tKRAS\t12\t1\t1\t0.1000000000000000000001"]
        ))
        g, _ = ingest.build_graph(res.rows, [clin_row("P1")], [], [])
        assert g.edge_records(EdgeColor.GREEN) == (res.rows[1],)
        assert g.vaf("P1", res.rows[0].mutation) == Fraction("0.1000000000000000000001")

    def test_rows_on_one_locus_share_the_graph_node(self):
        res = ingest.parse_mutation_table(
            mutation_tsv(["P1\tKRAS\t12\t1\t1\t0.3", "P2\tKRAS\t12\t1\t1\t0.5"])
        )
        first, second = (edge.mutation for edge in res.rows)
        assert first is second
        clinical = [
            (PatientRecord(pid, 10, True), DiagnosisEdge("LUAD", pid)) for pid in ("P1", "P2")
        ]
        g, _ = ingest.build_graph(res.rows, clinical, [], [])
        assert g.mutation_by_display("KRAS_12_1_1") is first

    def test_vaf_sentinel_stored_absent(self):
        res = ingest.parse_mutation_table(
            mutation_tsv(["P1\tKRAS\t12\t1\t1\tNA"])
        )
        assert res.rows[0].vaf is None


class TestOtherParsers:
    def test_clinical_floor_rule(self):
        res = ingest.parse_clinical_table(
            io.StringIO(
                "sample_id\tcancer_type\tos_months\tos_status\nP1\tLUAD\t41.3\tliving\n"
            )
        )
        assert res.rows[0][0].survival_months == 41
        g, _ = ingest.build_graph([], res.rows, [], [])
        assert g.patient("P1").survival_months == 41

    def test_gda_boundary_score(self):
        res = ingest.parse_gda_table(
            io.StringIO("gene\tdisease\tgda_score\nKRAS\tLUAD\t1.0\n")
        )
        assert res.rows[0].gda_score == 1.0
        assert res.issues == []

    def test_clinical_months_are_floored_exactly(self):
        # Read as a float, 35.99999999999999999 rounds up to 36.0.
        res = ingest.parse_clinical_table(io.StringIO(
            "sample_id\tcancer_type\tos_months\tos_status\n"
            "P1\tLUAD\t35.99999999999999999\tliving\nP2\tLUAD\t36\tliving\n"
        ))
        assert [r[0].survival_months for r in res.rows] == [35, 36]
        g, _ = ingest.build_graph([], res.rows, [], [])
        bands = cohort.survival_partition(g, t_long=36)
        assert bands.rest == {"P1"} and bands.long_survivors == {"P2"}

    # A value that a float would round to infinity counts as infinite.
    @pytest.mark.parametrize(
        "months", ["nan", "inf", "1e400", "abc", "-inf", "-1e400", "1.8e308", "sNaN"]
    )
    def test_clinical_months_must_be_finite(self, months):
        header = "sample_id\tcancer_type\tos_months\tos_status"
        res = ingest.parse_clinical_table(io.StringIO(f"{header}\nP1\tLUAD\t{months}\tliving\n"))
        assert res.rows == []
        assert [e.message for e in res.issues] == [f"non-numeric os_months '{months}'"]

    def test_gda_score_decimal_places_are_bounded(self):
        # 1e-1000000 would expand to a 3.3-million-bit integer, some 0.36 s.
        start = time.perf_counter()
        res = ingest.parse_gda_table(
            io.StringIO("gene\tdisease\tgda_score\nKRAS\tLUAD\t1e-400\nTP53\tLUAD\t1e-1000000\n")
        )
        assert time.perf_counter() - start < 0.1
        assert [r.gda_score for r in res.rows] == [Fraction(1, 10**400)]
        assert [(e.line, e.message) for e in res.issues] == [
            (3, "gda_score 1e-1000000 has more than 1000 decimal places")
        ]

    def test_gda_score_is_exact(self):
        # Both texts read as a float within [0, 1]; exactly, one is below 3/10
        # and the other above 1.
        res = ingest.parse_gda_table(
            io.StringIO(
                "gene\tdisease\tgda_score\nKRAS\tLUAD\t0.29999999999999999\n"
                "TP53\tLUAD\t1.00000000000000001\n"
            )
        )
        assert [r.gda_score for r in res.rows] == [Fraction(29999999999999999, 10**17)]
        assert [e.message for e in res.issues] == ["gda_score 1.00000000000000001 outside [0, 1]"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nan", "non-numeric gda_score 'nan'"),
            ("-inf", "non-numeric gda_score '-inf'"),
            ("1e999", "gda_score 1e999 outside [0, 1]"),
            ("1.50", "gda_score 1.50 outside [0, 1]"),
            ("1/2", "non-numeric gda_score '1/2'"),
            ("-1e-400", "gda_score -1e-400 outside [0, 1]"),
        ],
    )
    def test_gda_score_rejections(self, text, message):
        res = ingest.parse_gda_table(
            io.StringIO(f"gene\tdisease\tgda_score\nKRAS\tLUAD\t{text}\n")
        )
        assert res.rows == []
        assert [e.message for e in res.issues] == [message]

    def test_drug_weight_defaults_to_one(self):
        res = ingest.parse_drug_target_table(
            io.StringIO("drug\tgene\nsotorasib\tKRAS\n")
        )
        assert res.rows[0].toxicity_weight is None
        g, _ = ingest.build_graph([], [], [], res.rows)
        assert g.drug("sotorasib").toxicity_weight == Fraction(1)

    def test_drug_weight_is_bounded_before_it_is_built(self):
        # Fraction("1e-3000000") takes about a second, and printing it
        # breaks the int-to-str limit; 1e1000 has 1001 digits.
        start = time.perf_counter()
        res = ingest.parse_drug_target_table(io.StringIO(
            DRUG_HEADER + "d1\tKRAS\t1e-3000000\nd2\tKRAS\t1e1000\nd3\tKRAS\t1/3\n"
            "d4\tKRAS\t1e-1000\nd5\tKRAS\t1e999\nd6\tKRAS\tabc\n"
        ))
        assert time.perf_counter() - start < 0.1
        assert [r.toxicity_weight for r in res.rows] == [
            Fraction(1, 3), Fraction(1, 10**1000), Fraction(10**999)
        ]
        assert [(e.line, e.message) for e in res.issues] == [
            (2, "weight 1e-3000000 has more than 1000 decimal places"),
            (3, "weight 1e1000 has more than 1000 digits before the point"),
            (7, "non-numeric weight 'abc'"),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a" * 1001 + "/1", "non-numeric weight '{}'"),
            ("1" * 1001 + "/1", "weight {} has more than 1000 digits before the point"),
            ("1/" + "a" * 1001, "non-numeric weight '{}'"),
        ],
        ids=["letters-over-1", "digits-over-1", "1-over-letters"],
    )
    def test_only_digits_count_toward_the_bound_of_a_ratio(self, text, message):
        with pytest.raises(ValueError) as raised:
            ingest.exact_number(text, "weight")
        assert str(raised.value) == message.format(text)

    @pytest.mark.parametrize("text", ["1_0", "1/1_0", "0.0_1", "１/２", "٠.٥", "1e٣"])
    def test_underscore_is_not_a_digit_separator(self, text):
        # Fraction reads "1_0" as 10 from Python 3.11 on, but not on 3.10;
        # Decimal and Fraction read any Unicode digit.
        with pytest.raises(ValueError, match=f"non-numeric weight '{text}'"):
            ingest.exact_number(text, "weight")
        res = ingest.parse_drug_target_table(io.StringIO(DRUG_HEADER + f"d1\tKRAS\t{text}\n"))
        assert [e.message for e in res.issues] == [f"non-numeric weight '{text}'"]

    def test_treatment_effectiveness_codes(self):
        res = ingest.parse_treatment_table(
            io.StringIO(
                "sample_id\tdrug_id\torder\teffectiveness\nP1\tsotorasib\t0\tp\n"
                "P1\tsotorasib\t1\tz\n"
            )
        )
        assert len(res.rows) == 1
        assert len(res.issues) == 1


class TestOneObjectPerValue:
    """A parse keeps one object per distinct cell text and converts it once;
    a text that fails is read, and reported, again on every row."""

    def test_rows_of_one_sample_share_its_ids(self):
        res = ingest.parse_mutation_table(mutation_tsv([
            "P1\tKRAS\tchr12\t10\t10\t0.3",
            "P1\tKRAS\tchr12\t20\t20\t0.4",
            "P2\tTP53\tchr12\t30\t30\t0.5",
        ]))
        first, second, third = res.rows
        assert first.patient_id == second.patient_id == "P1"
        assert first.patient_id is second.patient_id
        assert first.mutation is not second.mutation
        assert first.mutation.gene is second.mutation.gene
        assert first.mutation.chromosome is second.mutation.chromosome is third.mutation.chromosome

    def test_patients_of_one_cancer_type_share_it(self):
        res = ingest.parse_clinical_table(io.StringIO(
            "sample_id\tcancer_type\tos_months\tos_status\n"
            "P1\tLUAD\t10\tliving\nP2\tLUAD\t20\tdeceased\nP3\tCOAD\t5\tliving\n"
        ))
        (_, first), (_, second), (_, third) = res.rows
        assert first.disease_id is second.disease_id
        assert third.disease_id == "COAD"

    def test_equal_texts_give_one_value(self):
        muts = ingest.parse_mutation_table(mutation_tsv(
            ["P1\tKRAS\t12\t10\t10\t0.25", "P2\tTP53\t17\t30\t30\t0.25"]
        ))
        assert muts.rows[0].vaf == 0.25
        assert muts.rows[0].vaf is muts.rows[1].vaf
        gda = ingest.parse_gda_table(io.StringIO(
            "gene\tdisease\tgda_score\nKRAS\tLUAD\t0.3\nTP53\tCOAD\t0.3\n"
        ))
        assert gda.rows[0].gda_score == Fraction(3, 10)
        assert gda.rows[0].gda_score is gda.rows[1].gda_score
        drugs = ingest.parse_drug_target_table(io.StringIO(
            DRUG_HEADER + "d1\tKRAS\t2.5\nd2\tTP53\t2.5\nd3\tTP53\t\n"
        ))
        first, second, unweighted = (r.toxicity_weight for r in drugs.rows)
        assert first == Fraction(5, 2)
        assert first is second
        assert unweighted is None

    def test_repeated_sentinel_vaf_stays_absent(self):
        res = ingest.parse_mutation_table(mutation_tsv(
            ["P1\tKRAS\t12\t10\t10\tNA", "P2\tKRAS\t12\t10\t10\tNA",
             "P3\tKRAS\t12\t10\t10\tna", "P4\tKRAS\t12\t10\t10\t"]
        ))
        assert [r.vaf for r in res.rows] == [None, None, None, None]
        assert res.issues == []

    @pytest.mark.parametrize(
        "parse, header, row, message",
        [
            (ingest.parse_mutation_table,
             "sample_id\tgene\tchromosome\tstart_position\tend_position\tvaf",
             "P{}\tKRAS\t12\t10\t10\t1.5", "vaf 1.5 outside [0, 1]"),
            (ingest.parse_gda_table, "gene\tdisease\tgda_score",
             "G{}\tLUAD\t1.5", "gda_score 1.5 outside [0, 1]"),
            (ingest.parse_drug_target_table, "drug\tgene\tweight",
             "d{}\tKRAS\t-1", "negative weight -1"),
        ],
        ids=["vaf", "gda_score", "weight"],
    )
    def test_repeated_bad_text_is_reported_on_every_row(self, parse, header, row, message):
        good = row.rsplit("\t", 1)[0] + "\t0.5"
        lines = [header, row.format(1), good.format(2), row.format(3)]
        res = parse(io.StringIO("\n".join(lines) + "\n"))
        assert len(res.rows) == 1
        assert [(e.line, e.message) for e in res.issues] == [(2, message), (4, message)]


def clin_row(pid, cancer="LUAD", months=10.0, status="living"):
    return PatientRecord(pid, math.floor(months), status == "living"), DiagnosisEdge(cancer, pid)


def mut_row(pid, gene, locus, vaf=0.5):
    return GeneticEdge(pid, MutationKey(gene, "1", locus, locus), vaf)


class TestBuildGraph:
    def test_duplicate_pair_collapses(self):
        g, report = ingest.build_graph(
            [mut_row("P1", "KRAS", 100, 0.2), mut_row("P1", "KRAS", 100, 0.6),
             mut_row("P2", "KRAS", 100, 0.3)],
            [clin_row("P1"), clin_row("P2")],
            [], [],
        )
        assert g.edge_counts()["green"] == 2
        m = g.mutation_by_display("KRAS_1_100_100")
        assert g.vaf("P1", m) == 0.6

    def test_collapse_rule_pinned(self):
        # Repeats of each kind, interleaved with orphan rows: an absent VAF
        # loses to any number, a tie keeps the earlier row, and a pair stays
        # at its first accepted row even when a later row wins; the edges
        # come grouped by patient, in first-seen order.
        rows = [
            mut_row("P1", "KRAS", 100, None),
            mut_row("P9", "KRAS", 100),  # orphan
            mut_row("P1", "KRAS", 100, 0.3),  # (None, 0.3): the new row wins
            mut_row("P1", "TP53", 200, 0.3),
            mut_row("P2", "KRAS", 100, 0.7),
            mut_row("P1", "TP53", 200, None),  # (0.3, None): the held row stays
            mut_row("P9", "EGFR", 300, 0.1),  # orphan on a locus not yet a node
            mut_row("P2", "KRAS", 100, 0.4),  # lower after higher
            mut_row("P3", "BRAF", 400, 0.5),
            mut_row("P3", "BRAF", 400, 0.5),  # equal: the earlier row stays
            mut_row("P1", "KRAS", 100, 0.9),  # wins; its pair came before P1/TP53
            mut_row("P9", "BRAF", 400),  # orphan
            mut_row("P2", "EGFR", 300, 0.2),
        ]
        g, report = ingest.build_graph(rows, [clin_row(p) for p in ("P1", "P2", "P3")], [], [])
        green = g.edge_records(EdgeColor.GREEN)
        kept = (rows[10], rows[3], rows[4], rows[12], rows[8])
        assert green == kept
        assert all(e is k for e, k in zip(green, kept))
        kras, tp53, egfr, braf = (rows[i].mutation for i in (0, 3, 6, 8))
        assert list(g.mutations) == [kras, tp53, braf, egfr]
        assert [g.vaf(e.patient_id, e.mutation) for e in kept] == [0.9, 0.3, 0.7, 0.2, 0.5]

        def orphan(pid):
            return ingest.ReportEntry(
                "build", 0, "warning", f"orphan mutation row: unknown sample {pid}"
            )

        def repeat(pid, locus):
            return ingest.ReportEntry(
                "build", 0, "info", f"duplicate mutation row for {pid}/{locus}; max VAF kept"
            )

        assert report == [
            orphan("P9"),
            repeat("P1", "KRAS_1_100_100"),
            repeat("P1", "TP53_1_200_200"),
            orphan("P9"),
            repeat("P2", "KRAS_1_100_100"),
            repeat("P3", "BRAF_1_400_400"),
            repeat("P1", "KRAS_1_100_100"),
            orphan("P9"),
            ingest.ReportEntry("build", 0, "warning", "3 orphan mutation row(s) excluded"),
        ]

    def test_loci_that_render_alike_resolve_to_the_first_row(self):
        # Gene A_1 on chromosome 2 and gene A on chromosome 1_2 both render
        # as A_1_2_5_5; the one whose row comes first in the input wins.
        a1 = GeneticEdge("P1", MutationKey("A_1", "2", 5, 5), 0.5)
        a12 = GeneticEdge("P2", MutationKey("A", "1_2", 5, 5), 0.5)
        for rows in ([a1, a12], [a12, a1]):
            g, _ = ingest.build_graph(rows, [clin_row("P1"), clin_row("P2")], [], [])
            assert g.mutation_by_display("A_1_2_5_5") == rows[0].mutation

    def test_gene_match_expansion(self):
        g, _ = ingest.build_graph(
            [mut_row("P1", "TP53", 100), mut_row("P1", "TP53", 200)],
            [clin_row("P1", cancer="LUAD")],
            [ingest.GdaTableRow("TP53", "LUAD", 0.95)],
            [],
        )
        assert len(g.gda_scores("LUAD")) == 2

    def test_orphan_sample_excluded(self):
        g, report = ingest.build_graph(
            [mut_row("P9", "KRAS", 100)], [clin_row("P1")], [], []
        )
        assert g.edge_counts()["green"] == 0
        assert any("orphan" in e.message for e in report)

    def test_treatment_rows_sorted_unknown_sample_and_drug_noted(self):
        rows = [
            TreatmentEdge("P2", "d1", 0, Effectiveness.POSITIVE),
            TreatmentEdge("P1", "d2", 1, Effectiveness.REDUCED),
            TreatmentEdge("P9", "d1", 0, Effectiveness.POSITIVE),  # unknown sample
            TreatmentEdge("P1", "d1", 1, Effectiveness.UNALTERED),
            TreatmentEdge("P1", "d9", 0, Effectiveness.NEGATIVE),  # unknown drug
            TreatmentEdge("P1", "d2", 0, Effectiveness.POSITIVE),
        ]
        g, report = ingest.build_graph(
            [], [clin_row("P1"), clin_row("P2")], [],
            [ingest.DrugTargetTableRow("d1", "KRAS"), ingest.DrugTargetTableRow("d2", "KRAS")],
            rows,
        )
        treatments = [e for e in g.edge_records(EdgeColor.RED) if type(e) is TreatmentEdge]
        assert treatments == [rows[5], rows[3], rows[1], rows[0]]
        assert g.edge_counts()["red"] == 2 + 4  # two diagnoses, four treatments
        assert [e.message for e in report if e.severity == "warning"] == [
            "treatment row for unknown drug d9",
            "treatment row for unknown sample P9",
        ]

    def test_duplicate_clinical_row_keeps_the_first(self):
        g, report = ingest.build_graph(
            [], [clin_row("P1", months=10.0), clin_row("P1", months=20.0)], [], []
        )
        assert g.patient("P1").survival_months == 10
        assert g.edge_counts()["red"] == 1
        assert report == [ingest.ReportEntry(
            "build", 0, "warning", "duplicate clinical row for P1; first kept"
        )]

    def test_conflicting_drug_weight_keeps_the_first(self):
        drugs = [
            ingest.DrugTargetTableRow("d1", "KRAS", Fraction(2)),
            ingest.DrugTargetTableRow("d1", "EGFR", Fraction(2)),  # equal: no note
            ingest.DrugTargetTableRow("d1", "TP53", None),  # no weight: no note
            ingest.DrugTargetTableRow("d1", "BRAF", Fraction(3)),
        ]
        g, report = ingest.build_graph(
            [mut_row("P1", "KRAS", 100), mut_row("P1", "EGFR", 200),
             mut_row("P1", "TP53", 300), mut_row("P1", "BRAF", 400)],
            [clin_row("P1")], [], drugs,
        )
        assert g.drug("d1").toxicity_weight == 2
        assert len(g.edge_records(EdgeColor.MAGENTA)) == 4
        assert report == [ingest.ReportEntry(
            "build", 0, "warning", "conflicting weight for drug d1; first kept"
        )]

    def test_output_always_validates(self):
        rng = random.Random(3)
        genes = ["KRAS", "TP53", "EGFR"]
        for _ in range(15):
            muts = [
                mut_row(f"P{rng.randint(0, 5)}", rng.choice(genes), rng.randint(1, 4) * 100)
                for _ in range(rng.randint(0, 12))
            ]
            clins = [
                clin_row(f"P{i}", cancer=rng.choice(["LUAD", "CRC"]),
                         months=rng.uniform(0, 60),
                         status=rng.choice(["living", "deceased"]))
                for i in range(rng.randint(0, 5))
            ]
            gdas = [
                ingest.GdaTableRow(rng.choice(genes), rng.choice(["LUAD", "CRC"]),
                                   round(rng.random(), 2))
                for _ in range(rng.randint(0, 4))
            ]
            drugs = [
                ingest.DrugTargetTableRow(f"drug{rng.randint(0, 2)}", rng.choice(genes))
                for _ in range(rng.randint(0, 4))
            ]
            g, _ = ingest.build_graph(muts, clins, gdas, drugs)
            assert validate(g) == []

    def test_deterministic_same_bytes_same_graph(self, fixture_paths):
        def load():
            mut = ingest.parse_mutation_table(fixture_paths["mutations"])
            cli = ingest.parse_clinical_table(fixture_paths["clinical"])
            gda = ingest.parse_gda_table(fixture_paths["gda"])
            drg = ingest.parse_drug_target_table(fixture_paths["drugs"])
            return ingest.build_graph(mut.rows, cli.rows, gda.rows, drg.rows)

        g1, r1 = load()
        g2, r2 = load()
        assert g1.partition_sizes() == g2.partition_sizes()
        assert g1.edge_counts() == g2.edge_counts()
        assert r1 == r2
        assert g1.mutations == g2.mutations
        assert g1.patients == g2.patients

    def test_row_count_conservation(self, fixture_paths):
        res = ingest.parse_mutation_table(fixture_paths["mutations"])
        assert len(res.rows) + len(res.issues) == res.data_lines


MUTATION_HEADER = "sample_id\tgene\tchromosome\tstart_position\tend_position\n"
CLINICAL_HEADER = "sample_id\tcancer_type\tos_months\tos_status\n"
TREATMENT_HEADER = "sample_id\tdrug_id\torder\teffectiveness\n"


class TestIdentifiersWithCommas:
    @pytest.mark.parametrize(
        "parse, text, column",
        [
            (ingest.parse_mutation_table, MUTATION_HEADER + "P9,P10\tKRAS\t12\t1\t1\n", "sample_id"),
            (ingest.parse_mutation_table, MUTATION_HEADER + "P1\tA,B\t12\t1\t1\n", "gene"),
            (ingest.parse_mutation_table, MUTATION_HEADER + "P1\tKRAS\t1,2\t1\t1\n", "chromosome"),
            (ingest.parse_clinical_table, CLINICAL_HEADER + "P9,P10\tLUAD\t1\tliving\n", "sample_id"),
            (ingest.parse_gda_table, "gene\tdisease\tgda_score\nA,B\tLUAD\t0.5\n", "gene"),
            (ingest.parse_drug_target_table, "drug\tgene\nd1,d2\tKRAS\n", "drug_id"),
            (ingest.parse_drug_target_table, "drug\tgene\nd1\tA,B\n", "gene"),
            (ingest.parse_treatment_table, TREATMENT_HEADER + "P9,P10\td1\t0\tp\n", "sample_id"),
            (ingest.parse_treatment_table, TREATMENT_HEADER + "P1\td1,d2\t0\tp\n", "drug_id"),
        ],
        ids=[
            "mutation-sample", "mutation-gene", "mutation-chromosome", "clinical-sample",
            "gda-gene", "drug-drug", "drug-gene", "treatment-sample", "treatment-drug",
        ],
    )
    def test_rejected_with_its_line(self, parse, text, column):
        # Ids are comma-joined in outputs and in `treat --targets`.
        res = parse(io.StringIO("# export\n" + text))
        assert res.rows == []
        [issue] = res.issues
        assert (issue.line, issue.severity) == (3, "error")
        assert issue.message.startswith(f"comma in {column} '")

    def test_free_text_columns_keep_commas(self):
        clinical = ingest.parse_clinical_table(
            io.StringIO(CLINICAL_HEADER + "P1\tLung, NOS\t1\tliving\n")
        )
        gda = ingest.parse_gda_table(
            io.StringIO("gene\tdisease\tgda_score\nKRAS\tLung, NOS\t0.5\n")
        )
        drugs = ingest.parse_drug_target_table(
            io.StringIO("drug\tgene\tadverse_effects\nd1\tKRAS\trash, nausea\n")
        )
        assert clinical.rows[0][1].disease_id == gda.rows[0].disease == "Lung, NOS"
        assert drugs.rows[0].adverse_effects == "rash, nausea"
        assert clinical.issues == gda.issues == drugs.issues == []


class TestEncoding:
    def test_bad_byte_named_by_file_and_line(self, tmp_path):
        # Far past the first decoded chunk, so the line is not the chunk's.
        path = tmp_path / "mutations.tsv"
        rows = [f"P{i}\tKRAS\t12\t{i}\t{i}\n".encode() for i in range(2000)]
        rows[1500] = b"P1500\tKR\xffAS\t12\t1\t1\n"
        path.write_bytes(MUTATION_HEADER.encode() + b"".join(rows))
        with pytest.raises(errors.InvalidEncoding) as exc:
            ingest.parse_mutation_table(path)
        assert str(exc.value).startswith(f"{path}:1502: not valid UTF-8")
        assert ingest.undecodable_line(path) == 1502


KRAS_1 = MutationKey("KRAS", "12", 1, 1)
DRUG_HEADER = "drug\tgene\tweight\tadverse_effects\n"


class TestTableLayout:
    """How every parser reads the layout of its table: optional columns and
    short rows, blank cells, line endings, comments and header order."""

    @pytest.mark.parametrize(
        "parse, text, rows, issues",
        [
            # An absent optional column, and a short row, read as not given.
            (ingest.parse_mutation_table, MUTATION_HEADER + "P1\tKRAS\t12\t1\t1\n",
             [GeneticEdge("P1", KRAS_1, None)], []),
            (ingest.parse_mutation_table,
             MUTATION_HEADER.replace("\n", "\tvaf\n")
             + "P1\tKRAS\t12\t1\t1\nP2\tKRAS\t12\t1\t1\t0.5\n",
             [GeneticEdge("P1", KRAS_1, None), GeneticEdge("P2", KRAS_1, 0.5)], []),
            (ingest.parse_drug_target_table, "drug\tgene\tadverse_effects\nd1\tKRAS\trash\n",
             [ingest.DrugTargetTableRow("d1", "KRAS", None, "rash")], []),
            (ingest.parse_drug_target_table,
             DRUG_HEADER + "d1\tKRAS\nd2\tKRAS\t2\nd3\tKRAS\t\trash\n",
             [ingest.DrugTargetTableRow("d1", "KRAS", None, None),
              ingest.DrugTargetTableRow("d2", "KRAS", Fraction(2), None),
              ingest.DrugTargetTableRow("d3", "KRAS", None, "rash")], []),
            # A required cell of blanks is missing, and so is one past a short row.
            (ingest.parse_mutation_table, MUTATION_HEADER + "P1\t \t12\t1\t1\nP1\tKRAS\t12\n",
             [], [(2, "missing required field(s): gene"),
                  (3, "missing required field(s): start, end")]),
            # The missing field wins over a comma in an id.
            (ingest.parse_mutation_table, MUTATION_HEADER + "P1,P2\t\t12\t1\t1\n",
             [], [(2, "missing required field(s): gene")]),
            # CRLF endings, indented comments and blank lines; lines keep their numbers.
            (ingest.parse_clinical_table,
             "  # export\r\n" + CLINICAL_HEADER.replace("\n", "\r\n")
             + "\t# note\r\n\r\nP1\tLUAD\t12.5\tLIVING\r\n  \r\nP2\tLUAD\tx\tdead\r\n",
             [(PatientRecord("P1", 12, True), DiagnosisEdge("LUAD", "P1"))],
             [(7, "non-numeric os_months 'x'")]),
            (ingest.parse_treatment_table,
             TREATMENT_HEADER.replace("\n", "\r\n") + "P1\td1\t0\tp\r\n",
             [TreatmentEdge("P1", "d1", 0, Effectiveness.POSITIVE)], []),
            # Columns are found by name: reordered, with extra ones between.
            (ingest.parse_clinical_table,
             "extra\tos_status\tsample_id\tos_months\tnote\tcancer_type\n"
             "x\tDECEASED\tP2\t3\ty\t BRCA \n",
             [(PatientRecord("P2", 3, False), DiagnosisEdge("BRCA", "P2"))], []),
            (ingest.parse_gda_table, "gda_score\tsource\tdisease\tgene\n0.5\tdb\tLUAD\tKRAS\n",
             [ingest.GdaTableRow("KRAS", "LUAD", Fraction(1, 2))], []),
        ],
        ids=[
            "no-vaf-column", "short-row-no-vaf", "no-weight-column", "short-drug-rows",
            "blank-required-cell", "missing-beats-comma", "crlf-and-comments", "crlf-treatment",
            "reordered-clinical", "reordered-gda",
        ],
    )
    def test_layout(self, parse, text, rows, issues):
        res = parse(io.StringIO(text))
        assert res.rows == rows
        assert [(e.line, e.message) for e in res.issues] == issues
        assert res.data_lines == len(rows) + len(issues)

    def test_spellings_of_one_locus_share_one_key(self):
        res = ingest.parse_mutation_table(io.StringIO(
            MUTATION_HEADER
            + "P1\tKRAS\t12\t012\t12\nP2\tKRAS\t12\t12\t0012\nP3\tKRAS\t12\t12\t12\n"
        ))
        assert res.issues == []
        first, *others = (edge.mutation for edge in res.rows)
        assert first == MutationKey("KRAS", "12", 12, 12)
        assert all(other is first for other in others)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (ingest.parse_mutation_table, MUTATION_HEADER + "P1\tKRAS\t12\t5\t1\n",
         "bad locus range 5..1"),
        (ingest.parse_clinical_table, CLINICAL_HEADER + "P1\tLUAD\t-2.5\tliving\n",
         "negative os_months -2.5"),
        (ingest.parse_clinical_table, CLINICAL_HEADER + "P1\tLUAD\t3\tmissing\n",
         "unrecognized os_status 'missing'"),
        (ingest.parse_drug_target_table, DRUG_HEADER + "d1\tKRAS\t-1/2\n", "negative weight -1/2"),
        (ingest.parse_treatment_table, TREATMENT_HEADER + "P1\td1\t-1\tp\n", "negative order -1"),
    ],
    ids=["locus-range", "negative-os-months", "os-status", "negative-weight", "negative-order"],
)
def test_value_rules(parse, text, message):
    res = parse(io.StringIO(text))
    assert res.rows == []
    assert [(e.line, e.message) for e in res.issues] == [(2, message)]
