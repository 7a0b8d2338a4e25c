(** Lint rule model: severities, findings and the rule interface.

    A rule is a named static check over a parsed netlist (and, when
    elaboration succeeds, the compiled MNA system). It reports findings
    that speak the designer's vocabulary — net and device names plus the
    netlist source line — instead of matrix indices. *)

type severity = Error | Warning | Info

val severity_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val severity_rank : severity -> int
(** Error < Warning < Info (for sorting, most severe first). *)

type finding = {
  rule_id : string;          (** stable rule identifier, e.g. "vsource-loop" *)
  severity : severity;
  message : string;          (** one-line, human-readable explanation *)
  nets : string list;        (** nets involved, most relevant first *)
  devices : string list;     (** devices involved, most relevant first *)
  line : int option;         (** netlist source line of the lead device *)
}

val finding :
  ?nets:string list -> ?devices:string list -> ?line:int ->
  id:string -> severity -> string -> finding

(** Everything a rule may inspect. [mna] is [None] when elaboration
    failed (e.g. a missing model card); rules needing the compiled system
    then simply skip. [static] is the signal-flow report — lazy, so a
    pass with no graph-powered rule never builds the graph, and one pass
    builds it at most once (or never, when the caller hands one in). *)
type ctx = {
  circ : Circuit.Netlist.t;
  mna : Engine.Mna.t option;
  static : Staticanalysis.Report.t Lazy.t;
}

val make_ctx :
  ?report:Staticanalysis.Report.t Lazy.t -> Circuit.Netlist.t -> ctx
(** Compile the circuit when possible; never raises. [report] is the
    circuit's static report (default bounds) as its owner caches it —
    forced, like the default, only inside a graph rule, so a report that
    raises is a crashed-rule finding, not a crashed pass; without it the
    graph rules build one. *)

type t = {
  id : string;               (** stable identifier, also the CLI name *)
  title : string;            (** one-line description for the catalogue *)
  severity : severity;       (** default severity of this rule's findings *)
  check : ctx -> finding list;
}

val pp_finding : ?file:string -> Format.formatter -> finding -> unit
(** ["file:line: severity[rule-id]: message (nets: ...; devices: ...)"].
    Omits the location prefix when no line was recorded. *)
