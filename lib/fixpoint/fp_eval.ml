module Eval = Fmtk_eval.Eval

type stats = Eval.stats

let new_stats = Eval.new_stats
let sat = Eval.sat
let answers = Eval.definable_relation
