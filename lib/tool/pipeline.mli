(** The canonical analysis run, expressed as a value.

    One code path from deck to results, shared by the CLI subcommands,
    the [acstab serve] daemon and OCEAN sessions:

    {v deck -> load (parse + lint gate) -> analyze (DC op -> kernel ->
       sweep -> peaks) -> results + manifest v}

    Failures are data ({!failure}, with {!exit_code} carrying the CLI's
    exit-code contract) rather than [exit] calls, so a resident server
    can answer a broken request and keep serving.

    [analyze] memoizes through {!Cache}, keyed by the deck's SHA-256
    fingerprint and the options in force, at three grains: the prepared
    probe (MNA + DC operating point), the compiled {!Engine.Kernel}
    (with its {!Engine.Ac_plan} symbolic analysis) and the complete
    result set with its run manifest. A warm repeat of an identical
    request performs zero DC solves and zero symbolic analyses; a
    request that changes only the sweep or the probed nodes still reuses
    the operating point and the kernel. One cold analysis builds the
    deck's static signal-flow report once and lints once. *)

type deck =
  | Deck_file of string                 (** parse a netlist file *)
  | Deck_text of { name : string; text : string }
      (** parse netlist text (the serve protocol's inline decks) *)
  | Deck_circuit of { name : string; circ : Circuit.Netlist.t }
      (** an already-built design, fingerprinted through its canonical
          SPICE rendering (temperature included) *)

type lint_policy = { no_lint : bool; strict : bool }

val default_lint_policy : lint_policy
(** Gate on lint errors; warnings pass. *)

type loaded = {
  deck_name : string;
  deck_text : string;
  sha256 : string;              (** deck fingerprint — every cache key's prefix *)
  circ : Circuit.Netlist.t;
  findings : Lint.Rule.finding list option;
      (** what the gate ran (and the CLI prints); [None] under
          [no_lint], which runs no linter *)
}

type failure =
  | Parse_failed of { message : string }        (** exit 2 *)
  | Usage_failed of { message : string }        (** exit 2 *)
  | Lint_blocked of { findings : Lint.Rule.finding list }  (** exit 4 *)
  | Analysis_failed of {
      message : string;
      likely_cause : Lint.Rule.finding list;
          (** lint findings that predicted the failure (singular-matrix
              translation), printed under a "likely cause:" header *)
    }  (** exit 3 *)

val exit_code : failure -> int
val failure_message : failure -> string

val load :
  ?cache:Cache.t -> ?policy:lint_policy -> deck -> (loaded, failure) result
(** Parse and lint-gate a deck. [Error Lint_blocked] when a finding
    blocks under [policy] (errors always; warnings under [strict]). The
    gate's graph rules read the deck's static report, memoized in
    [cache]'s [sfg] family (the entry {!static_report} returns later);
    without [cache] the report is built for this call only. *)

val guard : loaded -> (unit -> 'a) -> ('a, failure) result
(** Run an engine computation, translating its exceptions
    ([Dcop.No_convergence], dense/sparse [Singular], [Mna.Compile_error],
    [Invalid_argument]) into {!failure} values, with singular pivots
    named via {!Engine.Mna.unknown_name} and explained by the lint
    rules that predicted them. The long-tail CLI subcommands (ac, tran,
    noise, poles, ...) run their engine calls under this guard. *)

val static_report :
  ?cache:Cache.t -> ?bounds:Staticanalysis.Cycles.bounds -> loaded ->
  Staticanalysis.Report.t * bool
(** The deck's static signal-flow report (loops, probe cover,
    reachability), memoized in the [sfg] cache family keyed by the deck
    fingerprint and the cycle bounds. The [bool] is the hit flag; a warm
    hit performs zero graph rebuilds ([sfg.builds] stays flat). *)

val lint_findings : ?cache:Cache.t -> loaded -> Lint.Rule.finding list
(** The deck's lint findings: the gate's when it ran, otherwise one lint
    pass over the cached {!static_report}. *)

val manifest_of :
  ?cache:Cache.t -> loaded -> options:(string * string) list ->
  results:Stability.Analysis.node_result list -> wall_s:float ->
  cpu_s:float -> Manifest.t
(** The single manifest-emission helper: fingerprint, options, results,
    lint report ({!lint_findings}, so a [no_lint] run still records what
    the linter says), structural loops section, telemetry snapshot —
    used by [analyze] itself, by the run command's crash reports, and by
    anything else that must record a run. *)

val cpu_seconds : unit -> float
(** Process CPU time (user + system), the manifest's [cpu_s] clock. *)

(** {1 Stability analyses (the cached path)} *)

type analysis =
  | Single_node of Circuit.Netlist.node
  | All_nodes of Circuit.Netlist.node list option
      (** [None] probes every net, [Some] a subset *)
  | Auto_nodes
      (** probe the static report's greedy cover — every enumerated
          feedback loop observed with the fewest probes; falls back to
          every net when the deck has no coverable loops *)

type outcome = {
  loaded : loaded;
  analysis : analysis;
  options : Stability.Analysis.options;
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
  wall_s : float;   (** of the run that produced [results] (a cache hit
                        reports the original, cold timing) *)
  cpu_s : float;
  cache : [ `Hit | `Miss ];
}

val analyze :
  ?cache:Cache.t -> ?options:Stability.Analysis.options -> loaded ->
  analysis -> (outcome, failure) result
(** The canonical run on a loaded deck, under {!guard}, memoized in
    [cache] (default: the process-global {!Cache.global}). *)

val analyze_exn :
  ?cache:Cache.t -> ?options:Stability.Analysis.options -> loaded ->
  analysis -> outcome
(** As {!analyze} but letting engine exceptions propagate — for callers
    with their own exception contract ({!Ocean.run} under
    {!Diagnostics.guard}). *)

(** {1 One-step requests} *)

type request = {
  deck : deck;
  analysis : analysis;
  options : Stability.Analysis.options;
  policy : lint_policy;
}

val request :
  ?options:Stability.Analysis.options -> ?policy:lint_policy -> deck ->
  analysis -> request

val run : ?cache:Cache.t -> request -> (outcome, failure) result
(** [load] then [analyze], both on [cache] (default {!Cache.global}). *)
