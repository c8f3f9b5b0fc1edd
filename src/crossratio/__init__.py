"""Exact cross-ratio calculus for collinear points over skew fields.

The package bundles three exact skew-field implementations (rationals,
prime fields, rational quaternions), the ratio and cross-ratio calculus on
a coordinatized line including the point at infinity, ruler constructions
realizing field arithmetic inside the affine plane, a Desargues
configuration checker and generator, and a seeded exact verification
engine with machine-readable reports.  The package root re-exports
nothing: import each name from the submodule that defines it
(crossratio.fields, .ratio, .plane, .verify, .svg, .cli), so importing the
package loads none of them.
"""

__version__ = "0.1.0"
