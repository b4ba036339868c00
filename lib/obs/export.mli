(** Exportable trace timelines and metric snapshots.

    {!chrome_trace} serializes a trace window as Chrome [trace_event]
    JSON (the JSON-array format understood by [chrome://tracing] and
    Perfetto's legacy loader):

    - one {e thread} per object under the ["objects"] process, carrying
      a complete-span per operation from its [Invoke] to its [Respond]
      (named by the invocation's registered label), with refusals as
      instant events;
    - one {e thread} per transaction under the ["transactions"]
      process, carrying a span per stalled attempt from the first
      [Lock_refused]/[Retry] to the eventual [Respond] (named by
      the fired conflict cell), and instants for [Commit]/[Abort].

    Timestamps are the entries' monotonic-clock readings rebased to the
    window's first event, in microseconds as the format requires.
    Labels come from the {!Attrib} registry, so export works on any
    window whose emitting objects registered their codes
    ([Runtime.Atomic_obj] always does).  Run annotations
    ({!Metrics.annotate} — notably the workload [--seed]) are embedded
    as a [run_info] metadata event, so a saved timeline records the
    exact run that produced it.  All string escaping goes through
    {!Json.escape}.

    {!metrics_json} re-exports {!Metrics.dump_json}: one JSON object
    per line, for CI snapshot diffing alongside the timeline. *)

val chrome_trace : Format.formatter -> Trace.entry list -> unit
(** Write the window (oldest first) as a self-contained JSON array. *)

(** {1 Flight-recorder span slices}

    {!Profile.chrome_slices} reduces a decoded flight file to these
    generic slices; {!chrome_spans} renders them under a ["spans"]
    process with one thread per transaction.  A slice with
    [sl_dur_ns = 0] becomes an instant event.  Overlapping slices on
    one track nest in the viewer, so emitting the whole span plus each
    phase window yields the phase-nested timeline. *)

type slice = {
  sl_name : string;
  sl_cat : string;
  sl_tid : int;  (** transaction id *)
  sl_ts_ns : int;
  sl_dur_ns : int;
  sl_args : (string * string) list;
}

val chrome_spans : Format.formatter -> slice list -> unit

val metrics_json : Format.formatter -> unit -> unit
