(* A one-request-per-connection HTTP/1.1 client for the loopback daemon:
   the daemon answers every request with [Connection: close], so a
   response is everything read until EOF. *)

let recv_timeout = 30.

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
  in
  go ();
  Buffer.contents buf

(* [(status, body)]; raises [Failure] on a malformed response and
   [Unix.Unix_error] on transport trouble. *)
let request ~port ~meth ?(body = "") path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  write_all fd
    (Printf.sprintf
       "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
        application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       meth path (String.length body) body);
  let raw = read_all fd in
  let status =
    match String.split_on_char ' ' raw with
    | _ :: code :: _ -> (
      match int_of_string_opt code with
      | Some c -> c
      | None -> failwith "bad status line")
    | _ -> failwith "bad status line"
  in
  let rec header_end i =
    if i + 3 >= String.length raw then failwith "truncated response"
    else if String.sub raw i 4 = "\r\n\r\n" then i + 4
    else header_end (i + 1)
  in
  let start = header_end 0 in
  (status, String.sub raw start (String.length raw - start))
