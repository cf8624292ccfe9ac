"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.workloads.purchase_orders import _po_xsd, make_purchase_order
from repro.xmltree.serializer import write_file


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "a.xsd").write_text(
        _po_xsd(billto_optional=True, quantity_max_exclusive=100)
    )
    (tmp_path / "b.xsd").write_text(
        _po_xsd(billto_optional=False, quantity_max_exclusive=100)
    )
    (tmp_path / "list.dtd").write_text(
        "<!ELEMENT list (item*)><!ELEMENT item (#PCDATA)>"
    )
    write_file(make_purchase_order(2), str(tmp_path / "po.xml"))
    write_file(
        make_purchase_order(2, with_billto=False),
        str(tmp_path / "po_nobill.xml"),
    )
    return tmp_path


class TestValidate:
    def test_valid_document(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"),
        ])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document_exit_code(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po_nobill.xml"),
            "--schema", str(workspace / "b.xsd"),
        ])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_stats_flag(self, workspace, capsys):
        main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--stats",
        ])
        out = capsys.readouterr().out
        assert "nodes visited" in out

    def test_dtd_schema(self, workspace, capsys):
        doc = workspace / "l.xml"
        doc.write_text("<list><item>x</item></list>")
        code = main([
            "validate", str(doc), "--schema", str(workspace / "list.dtd"),
        ])
        assert code == 0

    def test_dtd_root_restriction(self, workspace):
        doc = workspace / "i.xml"
        doc.write_text("<item>x</item>")
        ok = main([
            "validate", str(doc), "--schema", str(workspace / "list.dtd"),
        ])
        restricted = main([
            "validate", str(doc), "--schema", str(workspace / "list.dtd"),
            "--root", "list",
        ])
        assert ok == 0
        assert restricted == 1


class TestCast:
    def test_valid_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "subtrees skipped" in out

    def test_invalid_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 1

    def test_plain_mode_flag(self, workspace):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--no-string-cast",
        ])
        assert code == 0

    def test_profile_parse_breakdown(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--profile-parse",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile:" in out
        assert "parse:" in out
        assert "validate:" in out
        assert "total:" in out

    def test_profile_parse_directory_mode(self, workspace, capsys):
        batch_dir = workspace / "batch"
        batch_dir.mkdir()
        write_file(make_purchase_order(1), str(batch_dir / "one.xml"))
        write_file(make_purchase_order(2), str(batch_dir / "two.xml"))
        code = main([
            "cast", str(batch_dir),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--profile-parse",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile:" in out

    def test_profile_parse_streaming_breaks_out_phases(
        self, workspace, capsys
    ):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--streaming", "--profile-parse",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "phase profile:" in captured.out
        assert "parse:" in captured.out
        assert "validate:" in captured.out
        # The breakdown comes from the instrumented event pipeline.
        assert "event pipeline" in captured.err

    def test_profile_parse_stream_skip_attributes_skim_time(
        self, workspace, capsys
    ):
        # The a->b pair is subsumption-heavy, so the skim phase must
        # show up on its own line instead of being lumped into parse.
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stream-skip", "--profile-parse",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "phase profile:" in captured.out
        assert "skip:" in captured.out
        assert "validate:" in captured.out


class TestRepair:
    def test_repair_writes_valid_output(self, workspace, capsys):
        out_path = workspace / "fixed.xml"
        code = main([
            "repair", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "-o", str(out_path),
        ])
        assert code == 0
        assert "1 repairs" in capsys.readouterr().out
        assert main([
            "validate", str(out_path), "--schema", str(workspace / "b.xsd"),
        ]) == 0

    def test_noop_repair(self, workspace, capsys):
        code = main([
            "repair", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 0
        assert "already valid" in capsys.readouterr().out


class TestRelationsAndGen:
    def test_relations_output(self, workspace, capsys):
        code = main([
            "relations",
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "R_sub" in out and "USAddress <= USAddress" in out

    def test_gen_po_to_file(self, workspace, capsys):
        out_path = workspace / "gen.xml"
        code = main(["gen-po", "5", "-o", str(out_path)])
        assert code == 0
        assert main([
            "validate", str(out_path), "--schema", str(workspace / "a.xsd"),
        ]) == 0

    def test_gen_po_to_stdout(self, capsys):
        code = main(["gen-po", "1"])
        assert code == 0
        assert "<purchaseOrder>" in capsys.readouterr().out

    def test_gen_po_negative_items_is_usage_error(self, workspace, capsys):
        out_path = workspace / "neg.xml"
        code = main(["gen-po", "-3", "-o", str(out_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: items must be >= 0, got -3"
        assert captured.out == ""
        assert not out_path.exists()


class TestErrors:
    def test_missing_file(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "nope.xml"),
            "--schema", str(workspace / "a.xsd"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_schema(self, workspace, capsys):
        bad = workspace / "bad.xsd"
        bad.write_text("<xsd:schema><oops")
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(bad),
        ])
        assert code == 2


class TestGuardKnobs:
    @pytest.mark.parametrize(
        "option,value",
        [
            ("--max-depth", "0"),
            ("--max-bytes", "0"),
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--retries", "-1"),
        ],
    )
    def test_bad_values_are_usage_errors(
        self, workspace, capsys, option, value
    ):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), option, value,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_depth_limit_trips(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--max-depth", "2",
        ])
        assert code == 2
        assert "max_tree_depth" in capsys.readouterr().err

    def test_validate_size_limit_trips(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--max-bytes", "16",
        ])
        assert code == 2
        assert "max_document_bytes" in capsys.readouterr().err

    def test_generous_limits_pass(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"),
            "--max-depth", "100", "--max-bytes", "1000000",
            "--timeout", "60", "--retries", "2",
        ])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_cast_depth_limit_trips(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--max-depth", "1",
        ])
        assert code == 2
        assert "max_tree_depth" in capsys.readouterr().err

    def test_cast_directory_reports_limit_errors_per_document(
        self, workspace, capsys
    ):
        corpus = workspace / "corpus"
        corpus.mkdir()
        write_file(make_purchase_order(1), str(corpus / "ok.xml"))
        (corpus / "deep.xml").write_text("<a>" * 60 + "</a>" * 60)
        code = main([
            "cast", str(corpus),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--max-depth", "50",
        ])
        out = capsys.readouterr().out
        assert code == 1  # the deep document fails, the rest validate
        assert "deep.xml" in out

    def test_cast_missing_directory_is_an_error(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "no-such-dir" / "x"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStreamingFlags:
    def test_streaming_validate(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--streaming",
        ])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_streaming_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--streaming", "--stats",
        ])
        assert code == 0
        assert "subtrees skipped" in capsys.readouterr().out

    def test_streaming_cast_invalid(self, workspace):
        code = main([
            "cast", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--streaming",
        ])
        assert code == 1

    def test_stream_skip_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stream-skip", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "byte-skipped subtrees" in out
        assert "bytes skipped" in out

    def test_stream_skip_cast_invalid(self, workspace):
        code = main([
            "cast", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stream-skip",
        ])
        assert code == 1

    def test_stream_skip_directory(self, workspace, capsys):
        code = main([
            "cast", str(workspace),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stream-skip",
        ])
        assert code == 1  # po_nobill.xml fails the required-billTo cast
        out = capsys.readouterr().out
        assert "1/2" in out or "valid" in out


class TestFleetFlags:
    """Multi-document input, recursion, checkpointing, and the uniform
    usage-error shape for every numeric knob."""

    @pytest.fixture()
    def corpus(self, workspace):
        batch_dir = workspace / "corpus"
        nested = batch_dir / "inner"
        nested.mkdir(parents=True)
        for index in range(3):
            write_file(
                make_purchase_order(1 + index),
                str(batch_dir / f"doc{index}.xml"),
            )
        write_file(make_purchase_order(2), str(nested / "deep.xml"))
        return batch_dir

    def cast(self, workspace, *extra):
        return main([
            "cast", *extra,
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])

    def test_recursive_directory(self, workspace, corpus, capsys):
        assert self.cast(workspace, str(corpus), "--recursive") == 0
        assert "4/4 valid" in capsys.readouterr().out

    def test_non_recursive_stays_top_level(
        self, workspace, corpus, capsys
    ):
        assert self.cast(workspace, str(corpus)) == 0
        assert "3/3 valid" in capsys.readouterr().out

    def test_multiple_documents_and_exit_code(
        self, workspace, corpus, capsys
    ):
        # A failing document anywhere makes the whole invocation exit 1.
        code = self.cast(
            workspace, str(corpus), str(workspace / "po_nobill.xml")
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "3/3 valid" in out
        assert "INVALID" in out

    def test_multiple_directories_share_a_fleet(
        self, workspace, corpus, capsys
    ):
        other = workspace / "other"
        other.mkdir()
        write_file(make_purchase_order(1), str(other / "one.xml"))
        code = self.cast(
            workspace, str(corpus), str(other), "--jobs", "2"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 valid (jobs=2)" in out
        assert "1/1 valid (jobs=2)" in out

    def test_checkpoint_then_resume(self, workspace, corpus, capsys):
        journal = str(workspace / "run.ckpt.jsonl")
        assert self.cast(
            workspace, str(corpus), "--checkpoint", journal
        ) == 0
        capsys.readouterr()
        assert self.cast(
            workspace, str(corpus), "--checkpoint", journal, "--resume"
        ) == 0
        out = capsys.readouterr().out
        assert "3 of 3 restored" in out

    def test_resume_requires_checkpoint(self, workspace, corpus, capsys):
        assert self.cast(workspace, str(corpus), "--resume") == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_needs_single_directory(
        self, workspace, corpus, capsys
    ):
        journal = str(workspace / "run.ckpt.jsonl")
        other = workspace / "other2"
        other.mkdir()
        assert self.cast(
            workspace, str(corpus), str(other), "--checkpoint", journal
        ) == 2
        assert "single directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--jobs", "0"),
            ("--memo-size", "0"),
            ("--chunk-size", "0"),
            ("--retries", "-1"),
            ("--timeout", "0"),
        ],
    )
    def test_knobs_share_the_usage_error_shape(
        self, workspace, capsys, option, value
    ):
        code = self.cast(
            workspace, str(workspace / "po.xml"), option, value
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {option} must be " in err
        assert f"got {value}" in err
