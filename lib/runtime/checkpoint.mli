(** Atomic, versioned checkpoints of the sampler state.

    A checkpoint captures everything needed to continue a stochastic-EM
    run bit-for-bit: the latent state of the {!Qnet_core.Event_store}
    (departures plus the chain structure a routing move may have
    rearranged), the current and anchor parameters, the full iterate
    history (so post-burn-in averages survive the restart), and the raw
    xoshiro256++ RNG state. The on-disk format is a little-endian
    binary codec with a magic tag, an explicit version word, and a
    trailing FNV-1a checksum; writes go to a temporary file that is
    renamed into place, so a crash mid-write can never destroy the
    previous good checkpoint. *)

type t = {
  iteration : int;  (** iterations completed when the state was captured *)
  rng_state : int64 array;  (** 4-word xoshiro256++ state *)
  params : Qnet_core.Params.t;  (** current iterate *)
  anchor : Qnet_core.Params.t;
      (** the initial parameters anchoring the M-step's MAP prior —
          without it a resumed run would re-derive a different prior
          and diverge from the uninterrupted one *)
  snapshot : Qnet_core.Event_store.snapshot;
  history : Qnet_core.Params.t array;  (** iterates [0 .. iteration-1] *)
  llh : float array;  (** log-likelihood per completed iteration *)
}

val capture : ?into:t -> Qnet_core.Stem.chain -> t
(** The chain's whole state, copied. With [into], an earlier checkpoint
    of this chain's store, the latent state is copied into [into]'s
    snapshot arrays instead of new ones (a store's arrays are large
    enough to go straight to the major heap), which leaves [into]
    describing the new state under its old iteration: the caller must
    not use [into] again. Raises [Invalid_argument] if [into] comes
    from a store of other dimensions. *)

val rollback : t -> Qnet_core.Stem.chain -> unit
(** [rollback ck chain] puts the chain back at [ck]: latent state,
    current parameters and iteration count. It leaves the RNG where it
    is, so a retry explores a fresh sampling path, and leaves the
    iterates before [ck.iteration], which cannot have changed since
    [ck] was captured from this chain. *)

val version : int
(** Current codec version (readers reject other versions). *)

val to_bytes : t -> string
val of_bytes : string -> (t, string) result

val save : path:string -> t -> unit
(** Atomic: encodes to [path ^ ".tmp"], then renames over [path].
    Raises [Sys_error] on I/O failure. *)

val load : path:string -> (t, string) result
(** Reads and decodes; [Error] on I/O failure, bad magic, version
    mismatch, checksum mismatch, or a malformed payload. Never
    raises. *)
