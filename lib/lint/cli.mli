(** Command-line behaviour behind [bin/rv_lint.ml]. *)

val default_paths : string list
(** [lib; bin; bench; test; examples] — the full gated scope. *)

val core_paths : string list
(** [lib; bin; bench] — the pre-v2 scope, selectable with [--scope core]. *)

val catalog : unit -> string
(** Human-readable rule catalog (R1..R9 with rationale). *)

val run :
  ?config:Config.t ->
  ?scope:string ->
  ?typed:bool ->
  ?build_dir:string option ->
  ?hotpaths:string option ->
  ?baseline:string option ->
  ?write_baseline:string option ->
  ?sarif:string option ->
  json:bool ->
  rules:string option ->
  paths:string list ->
  unit ->
  int
(** Lint [paths] (default: the roots named by [scope], ["full"] or
    ["core"]) and print the report to stdout (text or JSON).  [rules] of
    [Some "list"] prints the catalog instead.  With [baseline], only
    findings in excess of the snapshot fail the run; [write_baseline]
    regenerates the snapshot; [sarif] additionally writes a SARIF 2.1.0
    artifact of the full (pre-baseline) report.  Returns the process
    exit code: 0 clean, 1 unsuppressed findings, 2 usage error. *)
