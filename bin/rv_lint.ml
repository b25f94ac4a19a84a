(* rv_lint — standalone determinism & concurrency linter.

   The one front end to lib/lint; shipped as its own binary so CI and
   editors can run the gate without linking the whole simulator. *)

open Cmdliner

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: the roots selected by \
           $(b,--scope)).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the machine-readable JSON report on stdout.")

let rules_arg =
  Arg.(
    value
    & opt ~vopt:(Some "list") (some string) None
    & info [ "rules" ] ~docv:"R1,R2,..."
        ~doc:
          "Comma-separated subset of rules to run (default: all of R1..R9).  \
           With no value, list the full catalog and exit.")

let catalog_arg =
  Arg.(
    value & flag
    & info [ "catalog" ] ~doc:"Print the rule catalog with rationale and exit.")

let scope_arg =
  Arg.(
    value & opt string "full"
    & info [ "scope" ] ~docv:"full|core"
        ~doc:
          "Default path set when no PATH is given: $(b,full) = lib bin bench \
           test examples; $(b,core) = lib bin bench (the pre-v2 walk).")

let no_typed_arg =
  Arg.(
    value & flag
    & info [ "no-typed" ]
        ~doc:
          "Skip the typed pass (R6..R9) over .cmt artifacts; run only the \
           syntactic source pass.")

let build_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "build-dir" ] ~docv:"DIR"
        ~doc:
          "Directory holding dune's .cmt artifacts for the typed pass \
           (default: _build/default).")

let hotpaths_arg =
  Arg.(
    value & opt (some string) None
    & info [ "hotpaths" ] ~docv:"FILE"
        ~doc:
          "Hot-path manifest naming the functions held to R8's \
           no-allocation discipline and R7's dispatcher checks (default: \
           lint_hotpaths.txt when present).")

let baseline_arg =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Diff mode: fail (exit 1) only on findings not in this checked-in \
           baseline; warn on stderr for baselined findings that no longer \
           occur.")

let write_baseline_arg =
  Arg.(
    value & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:"Write the current findings as a fresh baseline and exit 0.")

let sarif_arg =
  Arg.(
    value & opt (some string) None
    & info [ "sarif" ] ~docv:"FILE"
        ~doc:
          "Additionally write the full (pre-baseline) report as SARIF 2.1.0 \
           to FILE.")

let main paths json rules catalog scope no_typed build_dir hotpaths baseline
    write_baseline sarif =
  if catalog then begin
    print_string (Rv_lint.Cli.catalog ());
    0
  end
  else
    Rv_lint.Cli.run ~scope ~typed:(not no_typed) ~build_dir ~hotpaths ~baseline
      ~write_baseline ~sarif ~json ~rules ~paths ()

let cmd =
  let doc = "static determinism & concurrency checks for the rendezvous tree" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Two passes.  The source pass parses every .ml under the given paths \
         and enforces the repo's determinism rules (R1..R5): no unseeded \
         randomness or wall-clock reads, no hash-iteration-order leaks, no \
         unsynchronised top-level mutable state in worker-linked modules, no \
         polymorphic compare/hash on float-bearing values, and balanced \
         observability spans.";
      `P
        "The typed pass reads the .cmt artifacts dune already produced and \
         enforces the concurrency and hot-path rules (R6..R9): an acyclic, \
         consistently ordered mutex-acquisition graph; no blocking calls \
         while a lock is held or inside a dispatcher hot path; no allocation \
         in the loop bodies of functions named in lint_hotpaths.txt; no \
         raise escaping a Thread.create/Domain.spawn entrypoint unhandled.";
      `P
        "Findings are suppressed only by a reasoned inline comment: \
         (* rv_lint: allow R3 -- reason *).  Bare allows are rejected.  \
         Accepted debt lives in a checked-in baseline (see $(b,--baseline)) \
         so CI fails only on new findings.";
      `S Manpage.s_exit_status;
      `P "0 on a clean tree, 1 on unsuppressed findings, 2 on usage errors.";
    ]
  in
  Cmd.v
    (Cmd.info "rv_lint" ~version:"2.0.0" ~doc ~man)
    Term.(
      const main $ paths_arg $ json_arg $ rules_arg $ catalog_arg $ scope_arg
      $ no_typed_arg $ build_dir_arg $ hotpaths_arg $ baseline_arg
      $ write_baseline_arg $ sarif_arg)

let () = exit (Cmd.eval' cmd)
