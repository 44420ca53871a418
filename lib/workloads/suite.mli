(** The paper's Table 3 benchmark suite: 11 resource-sensitive and 11
    resource-insensitive applications, each a parameterised {!Shapes}
    kernel matched to the original application's resource profile. *)

val all : App.t list
val sensitive : App.t list
val insensitive : App.t list
val find : string -> App.t
(** Look up by abbreviation (e.g. "CFD").
    @raise Not_found for unknown abbreviations. *)

val abbrs : string list
