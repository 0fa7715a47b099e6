(* On-disk trace format.  See the .mli for the byte layout. *)

module TB = Ilp_sim.Trace_buffer

type unroll_mode = [ `None | `Naive | `Careful | `Naive_bounded | `Careful_bounded ]

type key = {
  workload : string;
  unroll_mode : unroll_mode;
  unroll_factor : int;
  opt_level : int;
  temp_regs : int;
  home_regs : int;
  fingerprint : int64;
}

let magic = "ILPTRACE"
let format_version = 2

let mode_name = function
  | `None -> "none"
  | `Naive -> "naive"
  | `Careful -> "careful"
  | `Naive_bounded -> "naive-peel"
  | `Careful_bounded -> "careful-peel"

(* the canonical rendering the content address is computed over *)
let key_string k =
  Printf.sprintf "%s|%s|%d|O%d|t%d.h%d|%016Lx" k.workload
    (mode_name k.unroll_mode)
    k.unroll_factor k.opt_level k.temp_regs k.home_regs k.fingerprint

let key_id k = Checksum.Fnv.(to_hex (string empty (key_string k)))

let describe_key k =
  let unroll =
    match (k.unroll_mode, k.unroll_factor) with
    | `None, _ | _, 1 -> ""
    | m, f -> Printf.sprintf " %s-unroll %dx" (mode_name m) f
  in
  Printf.sprintf "%s -O%d%s t%d.h%d" k.workload k.opt_level unroll
    k.temp_regs k.home_regs

let equal_key a b =
  String.equal a.workload b.workload
  && a.unroll_mode = b.unroll_mode
  && a.unroll_factor = b.unroll_factor
  && a.opt_level = b.opt_level
  && a.temp_regs = b.temp_regs
  && a.home_regs = b.home_regs
  && Int64.equal a.fingerprint b.fingerprint

(* ---- encoding ------------------------------------------------------ *)

let add_u8 b x = Buffer.add_uint8 b (x land 0xff)
let add_u16 b x = Buffer.add_uint16_le b (x land 0xffff)
let add_u32 b x = Buffer.add_int32_le b (Int32.of_int x)
let add_i64 b x = Buffer.add_int64_le b (Int64.of_int x)

(* a u32 count, then the elements *)
let add_int32s b (a : Ilp_sim.Timing.visits) =
  add_u32 b (Bigarray.Array1.dim a);
  for i = 0 to Bigarray.Array1.dim a - 1 do
    Buffer.add_int32_le b a.{i}
  done

let add_str b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let mode_tag = function
  | `None -> 0
  | `Naive -> 1
  | `Careful -> 2
  | `Naive_bounded -> 3
  | `Careful_bounded -> 4

let encode k (pk : TB.packed) =
  let estimate =
    64 + String.length k.workload
    + (8 * Array.length pk.TB.p_class_counts)
    + (4 * Bigarray.Array1.dim pk.TB.p_visits)
    + (4 * Bigarray.Array1.dim pk.TB.p_addrs)
  in
  let b = Buffer.create estimate in
  Buffer.add_string b magic;
  add_u32 b format_version;
  (* key block *)
  add_str b k.workload;
  add_u8 b (mode_tag k.unroll_mode);
  add_u16 b k.unroll_factor;
  add_u8 b k.opt_level;
  add_u16 b k.temp_regs;
  add_u16 b k.home_regs;
  Buffer.add_int64_le b k.fingerprint;
  (* payload *)
  add_i64 b pk.TB.p_dyn_instrs;
  (match pk.TB.p_sink with
  | Ilp_sim.Value.Int n ->
      add_u8 b 0;
      add_i64 b n
  | Ilp_sim.Value.Float x ->
      add_u8 b 1;
      Buffer.add_int64_le b (Int64.bits_of_float x));
  add_u16 b (Array.length pk.TB.p_class_counts);
  Array.iter (add_i64 b) pk.TB.p_class_counts;
  add_int32s b pk.TB.p_visits;
  add_int32s b pk.TB.p_addrs;
  let body = Buffer.to_bytes b in
  let crc = Checksum.Crc32.bytes body ~pos:0 ~len:(Bytes.length body) in
  let out = Bytes.create (Bytes.length body + 4) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bytes.set_int32_le out (Bytes.length body) (Int32.of_int crc);
  out

(* ---- decoding ------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

type cur = { buf : Bytes.t; limit : int; mutable pos : int }

let need c n =
  if c.pos + n > c.limit then
    bad "truncated: wanted %d bytes at offset %d of %d" n c.pos c.limit

let u8 c =
  need c 1;
  let x = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  x

let u16 c =
  need c 2;
  let x = Bytes.get_uint16_le c.buf c.pos in
  c.pos <- c.pos + 2;
  x

let u32 c =
  need c 4;
  let x = Int32.to_int (Bytes.get_int32_le c.buf c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  x

let i64 c =
  need c 8;
  let x = Bytes.get_int64_le c.buf c.pos in
  c.pos <- c.pos + 8;
  x

let int_field c name =
  let x = i64 c in
  let n = Int64.to_int x in
  if Int64.of_int n <> x then bad "field %s out of range: %Ld" name x;
  n

let str c =
  let n = u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

(* a u32 count, then that many u32 elements *)
let int32s c name =
  let n = u32 c in
  if n > (c.limit - c.pos) / 4 then
    bad "%s: implausible element count %d" name n;
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- Bytes.get_int32_le c.buf (c.pos + (4 * i))
  done;
  c.pos <- c.pos + (4 * n);
  a

let decode bytes =
  try
    let len = Bytes.length bytes in
    if len < String.length magic + 4 + 4 then bad "truncated: %d bytes" len;
    if Bytes.sub_string bytes 0 (String.length magic) <> magic then
      bad "bad magic: not a trace-store file";
    let c = { buf = bytes; limit = len - 4; pos = String.length magic } in
    let version = u32 c in
    if version <> format_version then
      bad "format version skew: file has v%d, this build reads v%d" version
        format_version;
    let stored_crc =
      Int32.to_int (Bytes.get_int32_le bytes (len - 4)) land 0xffffffff
    in
    let crc = Checksum.Crc32.bytes bytes ~pos:0 ~len:(len - 4) in
    if crc <> stored_crc then
      bad "CRC mismatch: stored %08x, computed %08x (corrupt file)"
        stored_crc crc;
    let workload = str c in
    let unroll_mode =
      match u8 c with
      | 0 -> `None
      | 1 -> `Naive
      | 2 -> `Careful
      | 3 -> `Naive_bounded
      | 4 -> `Careful_bounded
      | t -> bad "unknown unroll-mode tag %d" t
    in
    let unroll_factor = u16 c in
    let opt_level = u8 c in
    let temp_regs = u16 c in
    let home_regs = u16 c in
    let fingerprint = i64 c in
    let key =
      { workload; unroll_mode; unroll_factor; opt_level; temp_regs;
        home_regs; fingerprint }
    in
    let p_dyn_instrs = int_field c "dyn_instrs" in
    let p_sink =
      match u8 c with
      | 0 -> Ilp_sim.Value.Int (int_field c "sink")
      | 1 -> Ilp_sim.Value.Float (Int64.float_of_bits (i64 c))
      | t -> bad "unknown sink tag %d" t
    in
    let n_classes = u16 c in
    let p_class_counts = Array.make n_classes 0 in
    for i = 0 to n_classes - 1 do
      p_class_counts.(i) <- int_field c "class_count"
    done;
    let p_visits = int32s c "visits" in
    let p_addrs = int32s c "addresses" in
    if c.pos <> c.limit then
      bad "trailing garbage: %d bytes past the payload" (c.limit - c.pos);
    Ok
      ( key,
        { TB.p_dyn_instrs; p_sink; p_class_counts; p_visits; p_addrs } )
  with Bad msg -> Error msg

let decode_for expect bytes =
  match decode bytes with
  | Error _ as e -> e
  | Ok (key, pk) ->
      if equal_key key expect then Ok pk
      else
        Error
          (Printf.sprintf
             "key collision: file holds %s (id %s), expected %s (id %s)"
             (describe_key key) (key_id key) (describe_key expect)
             (key_id expect))
