(** Lock-free log-bucketed histograms.

    A fixed 64-bucket layout (half a decade per bucket, spanning 1e-24
    to 1e8) shared by every histogram; recording is one atomic increment
    per sample with no allocation, safe from any domain. Percentiles are
    read out as the geometric midpoint of the bucket that crosses the
    requested rank, clamped into the exact [min, max] of the samples:
    they carry about half a decade of quantisation but never leave the
    observed range — plenty for health triage, not for timing
    micro-benchmarks.

    Like {!Counter}, histograms live in a process-global registry keyed
    by name so independent subsystems can share one instance. *)

type t

type summary = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;  (** exact maximum observed, not bucket-quantised *)
}

val make : string -> t
(** Create or fetch the histogram registered under [name]. *)

val name : t -> string

val observe : t -> float -> unit
(** Record one sample. Non-positive values land in the lowest bucket,
    NaN in the highest; safe to call concurrently from any domain. *)

val count : t -> int

val merge : into:t -> t -> unit
(** [merge ~into src] adds every sample of [src] into [into] (bin-wise:
    the shared bucket layout makes the merge exact, min and max
    included).
    [src] is unchanged; merging a histogram into itself is a no-op.
    Safe under concurrent [observe]s on either histogram. *)

val summary : t -> summary
(** Percentile readout from the current bins, each quantile clamped
    into the exact [min, max] observed, so p50 <= p90 <= p99 <= max.
    All-zero when empty. *)

val find : string -> t option

val snapshot : unit -> (string * summary) list
(** Every registered histogram with at least one sample, sorted by
    name. *)

val reset : unit -> unit
(** Zero all bins of every registered histogram (for tests/bench). *)

val bucket_of : float -> int
(** Bucket index a value lands in (exposed for tests). *)

val value_of : int -> float
(** Representative (geometric-midpoint) value of a bucket. *)
