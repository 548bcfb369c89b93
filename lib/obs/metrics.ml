type counter = { mutable c : int }
type gauge = { mutable g : int }

let nbuckets = 40

type histogram = {
  slots : int array; (* length nbuckets *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmax : float;
}

type instrument = C of counter | G of gauge | H of histogram

type t = {
  table : (string, string * instrument) Hashtbl.t; (* name -> help, handle *)
}

let create () = { table = Hashtbl.create 64 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register ?(help = "") t name fresh =
  match Hashtbl.find_opt t.table name with
  | Some (_, existing) -> existing
  | None ->
      let i = fresh () in
      Hashtbl.replace t.table name (help, i);
      i

let counter ?help t name =
  match register ?help t name (fun () -> C { c = 0 }) with
  | C c -> c
  | i ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %S is already a %s" name (kind_name i))

let gauge ?help t name =
  match register ?help t name (fun () -> G { g = 0 }) with
  | G g -> g
  | i ->
      invalid_arg
        (Printf.sprintf "Metrics.gauge: %S is already a %s" name (kind_name i))

let histogram ?help t name =
  match
    register ?help t name (fun () ->
        H { slots = Array.make nbuckets 0; hcount = 0; hsum = 0.0; hmax = 0.0 })
  with
  | H h -> h
  | i ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %S is already a %s" name
           (kind_name i))

module Counter = struct
  let incr ?(by = 1) c = c.c <- c.c + by
  let get c = c.c
end

module Gauge = struct
  let set g v = g.g <- v
  let get g = g.g
end

module Histogram = struct
  let buckets = nbuckets

  let bound i =
    if i >= nbuckets - 1 then Float.infinity else Float.of_int (1 lsl i)

  (* Bucket 0: v < 1; bucket i: 2^(i-1) <= v < 2^i; last bucket:
     everything beyond. frexp gives the binary exponent directly. *)
  let index v =
    if v < 1.0 then 0
    else
      let e = snd (Float.frexp v) in
      Int.min e (nbuckets - 1)

  let observe h v =
    let v = if v < 0.0 then 0.0 else v in
    let i = index v in
    h.slots.(i) <- h.slots.(i) + 1;
    h.hcount <- h.hcount + 1;
    h.hsum <- h.hsum +. v;
    if v > h.hmax then h.hmax <- v

  let count h = h.hcount
  let sum h = h.hsum
  let max_value h = h.hmax
  let mean h = if h.hcount = 0 then 0.0 else h.hsum /. float_of_int h.hcount
  let bucket_counts h = Array.copy h.slots

  let quantile h q =
    if q < 0.0 || q > 1.0 then invalid_arg "Metrics.Histogram.quantile";
    if h.hcount = 0 then 0.0
    else begin
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.hcount)))
      in
      let acc = ref 0 and idx = ref (nbuckets - 1) in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + h.slots.(i);
           if !acc >= rank then begin
             idx := i;
             raise Exit
           end
         done
       with Exit -> ());
      Float.min (bound !idx) h.hmax
    end
end

type hsnap = {
  counts : int array;
  count : int;
  sum : float;
  max_value : float;
}

type value = Counter_v of int | Gauge_v of int | Histogram_v of hsnap

let absorb t snap =
  List.iter
    (fun (name, help, v) ->
      match v with
      | Counter_v n -> Counter.incr ~by:n (counter ~help t name)
      | Gauge_v n ->
          let g = gauge ~help t name in
          Gauge.set g (Gauge.get g + n)
      | Histogram_v s ->
          let h = histogram ~help t name in
          Array.iteri (fun i n -> h.slots.(i) <- h.slots.(i) + n) s.counts;
          h.hcount <- h.hcount + s.count;
          h.hsum <- h.hsum +. s.sum;
          if s.max_value > h.hmax then h.hmax <- s.max_value)
    snap

let snapshot t =
  Hashtbl.fold
    (fun name (help, i) acc ->
      let v =
        match i with
        | C c -> Counter_v c.c
        | G g -> Gauge_v g.g
        | H h ->
            Histogram_v
              {
                counts = Array.copy h.slots;
                count = h.hcount;
                sum = h.hsum;
                max_value = h.hmax;
              }
      in
      (name, help, v) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
