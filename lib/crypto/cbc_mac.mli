(** CBC-MAC over any {!Block.S} cipher, with length prefixing.

    This is the concrete realization of the paper's {i F_MAC}
    operation module: a "cryptographic computing module (e.g., 2EM)"
    that on-path routers run to update authentication tags (§2.3).

    Plain CBC-MAC is only secure for fixed-length messages; we
    prepend the message length as the first block (the standard
    prefix-free encoding), so tags over different-length inputs are
    domain-separated. Tags may be truncated; OPT uses 128-bit tags. *)

module Make (C : Block.S) : sig
  type key

  val expand_key : string -> key
  (** Raises [Invalid_argument] unless the key is [C.key_size] bytes. *)

  val mac_into :
    key -> src:bytes -> src_off:int -> len:int -> dst:bytes -> dst_off:int -> unit
  (** [mac_into k ~src ~src_off ~len ~dst ~dst_off] writes the full
      [C.block_size]-byte tag over the [len] bytes of [src] at
      [src_off] into [dst] at [dst_off]. The one CBC loop: it chains
      in a single per-call block (with 2EM nothing else is
      allocated), and writes the tag after its last read of [src], so
      the two ranges may overlap. Raises [Invalid_argument] if either
      range is out of bounds. *)

  val mac : key -> string -> string
  (** [mac k msg] is the full [C.block_size]-byte tag over [msg]
      (any length, including empty); a wrapper over {!mac_into}. *)

  val mac_truncated : key -> int -> string -> string
  (** [mac_truncated k n msg] keeps the first [n] bytes of the tag.
      Raises [Invalid_argument] if [n] is not in [\[1, block_size\]]. *)

  val verify : key -> tag:string -> string -> bool
  (** Constant-time comparison of [tag] (possibly truncated) against
      the recomputed tag. *)

  val passes : int
  (** Pipeline passes per block, inherited from the cipher. *)
end
